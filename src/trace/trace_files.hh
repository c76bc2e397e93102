/**
 * @file
 * The one place a tool writes a recorded trace to disk: the CLIs and
 * the benches share `--trace=FILE` (Chrome JSON) and
 * `--trace-text=FILE` (text timeline, "-" for stdout), and a write
 * that fails must fail the tool, not just print a warning.
 */

#ifndef LATR_TRACE_TRACE_FILES_HH_
#define LATR_TRACE_TRACE_FILES_HH_

#include <string>

#include "trace/trace.hh"

namespace latr
{

class NumaTopology;

/**
 * Write @p recorder as Chrome JSON to @p jsonPath and as a detailed
 * text timeline to @p textPath ("-" = stdout); an empty path skips
 * that sink. Reports each Chrome write, and every failure, on
 * stderr.
 *
 * @return false if any requested file could not be written.
 */
bool writeTraceFiles(const TraceRecorder &recorder,
                     const NumaTopology *topo,
                     const std::string &jsonPath,
                     const std::string &textPath);

} // namespace latr

#endif // LATR_TRACE_TRACE_FILES_HH_
