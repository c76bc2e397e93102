#include "trace/trace_files.hh"

#include <cstdio>

#include "trace/chrome_trace.hh"
#include "trace/text_dump.hh"

namespace latr
{

bool
writeTraceFiles(const TraceRecorder &recorder, const NumaTopology *topo,
                const std::string &jsonPath, const std::string &textPath)
{
    bool ok = true;
    if (!jsonPath.empty()) {
        if (writeChromeTraceFile(recorder, topo, jsonPath)) {
            std::fprintf(stderr, "trace: %llu records -> %s\n",
                         static_cast<unsigned long long>(recorder.size()),
                         jsonPath.c_str());
        } else {
            std::fprintf(stderr, "trace: cannot write '%s'\n",
                         jsonPath.c_str());
            ok = false;
        }
    }
    if (!textPath.empty()) {
        std::FILE *f = textPath == "-" ? stdout
                                       : std::fopen(textPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "trace: cannot write '%s'\n",
                         textPath.c_str());
            return false;
        }
        writeTextTimeline(recorder, TextDumpOptions{}, f);
        if (f != stdout && std::fclose(f) != 0) {
            std::fprintf(stderr, "trace: cannot write '%s'\n",
                         textPath.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace latr
