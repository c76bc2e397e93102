/**
 * @file
 * Shared helpers for the benches: each bench prints the machine it
 * simulates, the paper's reported anchor numbers, and the measured
 * rows, in a fixed-width layout that is easy to diff across runs.
 * Also the shared argv handling (an unknown option or a malformed
 * numeric value exits 2) and the one baseline reader and gate behind
 * every `--check-against=` flag.
 */

#ifndef LATR_BENCH_BENCH_UTIL_HH_
#define LATR_BENCH_BENCH_UTIL_HH_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "sim/numeric_arg.hh"
#include "topo/machine_config.hh"
#include "trace/trace_files.hh"

namespace latr::bench
{

/** Print the bench banner: experiment id, description, machine. */
inline void
banner(const char *experiment, const char *description,
       const MachineConfig &config)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", experiment, description);
    std::printf("machine: %s (%u sockets x %u cores)\n",
                config.name.c_str(), config.sockets,
                config.coresPerSocket);
    std::printf("==============================================================\n");
}

/** Print the paper's expectation for this experiment. */
inline void
paperExpectation(const char *text)
{
    std::printf("paper:    %s\n", text);
}

/** Print the measured headline for this experiment. */
inline void
measuredHeadline(const char *fmt, ...)
{
    std::printf("measured: ");
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

inline void
rule()
{
    std::printf("--------------------------------------------------------------\n");
}

/** ns -> us for printing. */
inline double
us(double ns)
{
    return ns / 1000.0;
}

/**
 * The git commit the bench binary's tree was built from, or
 * "unknown" outside a work tree. Cached: the subprocess runs once
 * per bench process, not once per JSON document.
 */
inline const std::string &
gitSha()
{
    static const std::string sha = [] {
        std::string out = "unknown";
        if (std::FILE *p = ::popen(
                "git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
            char buf[64] = {0};
            if (std::fgets(buf, sizeof buf, p)) {
                std::size_t n = std::strcspn(buf, "\r\n");
                if (n > 0)
                    out.assign(buf, n);
            }
            ::pclose(p);
        }
        return out;
    }();
    return sha;
}

/**
 * Machine-readable results, written next to the human-readable table
 * when the bench is invoked with `--json=FILE`. Every bench emits the
 * same shape — experiment id, description, named rows, and the
 * measured headline — so BENCH_*.json files can be tracked and
 * compared uniformly across runs and PRs:
 *
 *   {
 *     "experiment": "Figure 6",
 *     "description": "...",
 *     "headline": "...",
 *     "config": {"jobs": 4, "git_sha": "...", ...},
 *     "rows": [ {"cores": 16, "linux_us": 7.9, ...}, ... ]
 *   }
 *
 * The config object records the host-side knobs the bench ran with
 * (worker threads) so a BENCH_*.json is self-describing: two files
 * can only be compared when their configs match. Every document also
 * records the git commit it was built from and the baseline file it
 * was gated against (see baselineFile()) — the two provenance fields
 * that turn a stray BENCH_*.json back into a reproducible data point.
 */
class JsonWriter
{
  public:
    JsonWriter(std::string experiment, std::string description)
        : experiment_(std::move(experiment)),
          description_(std::move(description))
    {
        config("git_sha", gitSha());
    }

    /**
     * Record the `--check-against=` baseline this run was gated
     * against ("none" when the bench ran ungated).
     */
    JsonWriter &
    baselineFile(const std::string &path)
    {
        return config("baseline_file",
                      path.empty() ? std::string("none") : path);
    }

    /** Start a new row; subsequent num()/str() calls fill it. */
    JsonWriter &
    row()
    {
        rows_.emplace_back();
        return *this;
    }

    JsonWriter &
    num(const char *key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        rows_.back().emplace_back(key, buf);
        return *this;
    }

    JsonWriter &
    num(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(value));
        rows_.back().emplace_back(key, buf);
        return *this;
    }

    JsonWriter &
    str(const char *key, const std::string &value)
    {
        rows_.back().emplace_back(key, quote(value));
        return *this;
    }

    /** Record one host-side knob in the document's config object. */
    JsonWriter &
    config(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(value));
        config_.emplace_back(key, buf);
        return *this;
    }

    JsonWriter &
    config(const char *key, const std::string &value)
    {
        config_.emplace_back(key, quote(value));
        return *this;
    }

    /** Record the measured headline (mirrors measuredHeadline()). */
    void
    headline(const char *fmt, ...)
    {
        char buf[512];
        va_list args;
        va_start(args, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, args);
        va_end(args);
        headline_ = buf;
    }

    /**
     * Write the document; no-op when @p path is empty.
     * @return false (reported on stderr) when the file could not be
     *         written; the bench then exits 1.
     */
    bool
    write(const std::string &path) const
    {
        if (path.empty())
            return true;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "json: cannot write '%s'\n",
                         path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"experiment\": %s,\n",
                     quote(experiment_).c_str());
        std::fprintf(f, "  \"description\": %s,\n",
                     quote(description_).c_str());
        std::fprintf(f, "  \"headline\": %s,\n",
                     quote(headline_).c_str());
        if (!config_.empty()) {
            std::fprintf(f, "  \"config\": {");
            for (std::size_t i = 0; i < config_.size(); ++i)
                std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                             config_[i].first.c_str(),
                             config_[i].second.c_str());
            std::fprintf(f, "},\n");
        }
        std::fprintf(f, "  \"rows\": [");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s\n    {", i ? "," : "");
            const auto &row = rows_[i];
            for (std::size_t j = 0; j < row.size(); ++j)
                std::fprintf(f, "%s\"%s\": %s", j ? ", " : "",
                             row[j].first.c_str(),
                             row[j].second.c_str());
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n  ]\n}\n");
        if (std::fclose(f) != 0) {
            std::fprintf(stderr, "json: cannot write '%s'\n",
                         path.c_str());
            return false;
        }
        return true;
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out += c;
        }
        out += '"';
        return out;
    }

    std::string experiment_;
    std::string description_;
    std::string headline_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::vector<std::pair<std::string, std::string>>>
        rows_;
};

/**
 * Accept only @p accepted options: an entry ending in '=' takes a
 * value (`"--jobs="` matches `--jobs=4`), any other must match
 * exactly (`"--per-tenant"`). Anything else exits 2, so a mistyped,
 * retired or unsupported flag is reported instead of silently
 * ignored. An empty list is a bench that takes no options.
 */
inline void
acceptOptions(int argc, char **argv,
              std::initializer_list<const char *> accepted = {})
{
    for (int i = 1; i < argc; ++i) {
        bool known = false;
        for (const char *opt : accepted) {
            const std::size_t n = std::strlen(opt);
            known = known || (opt[n - 1] == '='
                                  ? std::strncmp(argv[i], opt, n) == 0
                                  : std::strcmp(argv[i], opt) == 0);
        }
        if (known)
            continue;
        if (accepted.size() == 0)
            std::fprintf(stderr, "%s takes no options (got '%s')\n",
                         argv[0], argv[i]);
        else
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         argv[i]);
        std::exit(2);
    }
}

/** `--json=FILE` from the bench's argv ("" when absent). */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return argv[i] + 7;
    return "";
}


/**
 * Tracing knobs shared by the benches: parsed from the bench's argv
 * (`--trace=FILE`, `--trace-text=FILE`, `--trace-capacity=N`).
 * Benches run many machines; each picks one representative point to
 * arm with applyTrace()/finishTrace().
 */
struct TraceOptions
{
    std::string jsonPath;
    std::string textPath;
    std::size_t capacity = 0; // 0 = recorder default

    bool wanted() const
    {
        return !jsonPath.empty() || !textPath.empty();
    }
};

inline TraceOptions
traceOptionsFromArgs(int argc, char **argv)
{
    TraceOptions opts;
    auto value = [](const char *arg,
                    const char *key) -> const char * {
        const std::size_t n = std::strlen(key);
        if (std::strncmp(arg, key, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (const char *v = value(argv[i], "--trace"))
            opts.jsonPath = v;
        else if (const char *v = value(argv[i], "--trace-text"))
            opts.textPath = v;
        else if (const char *v = value(argv[i], "--trace-capacity")) {
            std::uint64_t capacity = 0;
            if (!parseUnsignedArg("--trace-capacity", v, 0,
                                  std::uint64_t{1} << 32, &capacity))
                std::exit(2);
            opts.capacity = static_cast<std::size_t>(capacity);
        }
    }
    return opts;
}

/** Arm @p machine's recorder per @p opts (no-op when not wanted). */
inline void
applyTrace(Machine &machine, const TraceOptions &opts)
{
    if (!opts.wanted())
        return;
    if (opts.capacity != 0)
        machine.trace().setCapacity(opts.capacity);
    machine.trace().setEnabled(true);
}

/**
 * Write the armed machine's trace to the requested files.
 * @return false if a requested file could not be written.
 */
inline bool
finishTrace(Machine &machine, const TraceOptions &opts)
{
    return writeTraceFiles(machine.trace(), &machine.topo(),
                           opts.jsonPath, opts.textPath);
}

/**
 * The baseline gate's knobs: `--check-against=BASELINE.json` (all
 * gated benches) and `--max-regression=R` (bench_engine's host-time
 * gate only), where R is a fraction (0.30) or a percentage (30). A
 * malformed R exits 2.
 */
struct GateOptions
{
    std::string baselinePath; ///< "" = run ungated
    double maxRegression = 0.30;
};

inline GateOptions
gateOptionsFromArgs(int argc, char **argv)
{
    GateOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--check-against=", 16) == 0) {
            opts.baselinePath = argv[i] + 16;
        } else if (std::strncmp(argv[i], "--max-regression=", 17) ==
                   0) {
            if (!parseRealArg("--max-regression", argv[i] + 17, 0.0,
                              100.0, &opts.maxRegression))
                std::exit(2);
        }
    }
    if (opts.maxRegression > 1.0)
        opts.maxRegression /= 100.0;
    return opts;
}

/** One measured or recorded row: scenario name and a field's value. */
struct ScenarioValue
{
    std::string scenario;
    double value;
};

/** One recorded row: scenario name and a field's JSON text. */
struct ScenarioText
{
    std::string scenario;
    std::string text; ///< a string field's contents, unquoted
};

/**
 * Read @p field's text from every row of a BENCH_*.json written by
 * an earlier run, in file order. Rows that do not carry the field
 * are skipped; an empty result means the file was unreadable or held
 * no such rows.
 */
inline std::vector<ScenarioText>
readBaselineText(const std::string &path, const char *field)
{
    std::vector<ScenarioText> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string key = std::string("\"") + field + "\":";
    std::size_t at = 0;
    while ((at = text.find("\"scenario\": \"", at)) !=
           std::string::npos) {
        at += 13;
        const std::size_t end = text.find('"', at);
        if (end == std::string::npos)
            break;
        // Only this row's own field counts.
        const std::size_t row_end = text.find('}', end);
        std::size_t value = text.find(key, end);
        if (value < row_end) {
            value = text.find_first_not_of(' ', value + key.size());
            if (value == std::string::npos)
                break;
            const bool quoted = text[value] == '"';
            const std::size_t first = value + quoted;
            const std::size_t last =
                quoted ? text.find('"', first)
                       : text.find_first_of(",}", first);
            out.push_back({text.substr(at, end - at),
                           text.substr(first, last - first)});
        }
        at = end;
    }
    return out;
}

/** readBaselineText() of a numeric field. */
inline std::vector<ScenarioValue>
readBaseline(const std::string &path, const char *field)
{
    std::vector<ScenarioValue> out;
    for (const ScenarioText &row : readBaselineText(path, field))
        out.push_back(
            {row.scenario, std::strtod(row.text.c_str(), nullptr)});
    return out;
}

/** What a gate compares, and which direction is a regression. */
struct GateSpec
{
    const char *label;   ///< printed, e.g. "tail gate"
    const char *field;   ///< baseline row field, e.g. "p99_us"
    bool higherIsBetter; ///< throughput true, latency false
    int precision;       ///< digits printed after the point
    const char *unit;    ///< printed after the measured value
};

/**
 * Gate @p measured against every baseline row that @p gated accepts
 * (all rows when null): a higher-is-better value may fall at most
 * @p opts.maxRegression below its baseline, a lower-is-better one
 * rise at most that far above it. Prints one line per gated row.
 *
 * @return 0 when every gated row holds, 1 on a regression, 2 when
 *         the baseline is unreadable or names a scenario this run
 *         did not produce (a dropped or renamed row must not pass
 *         silently).
 */
inline int
gateAgainstBaseline(const char *tool, const GateOptions &opts,
                    const GateSpec &spec,
                    const std::vector<ScenarioValue> &measured,
                    bool (*gated)(const std::string &) = nullptr)
{
    const std::vector<ScenarioValue> baseline =
        readBaseline(opts.baselinePath, spec.field);
    if (baseline.empty()) {
        std::fprintf(stderr,
                     "%s: cannot read any scenario rows from "
                     "baseline '%s'\n",
                     tool, opts.baselinePath.c_str());
        return 2;
    }
    bool failed = false;
    for (const ScenarioValue &base : baseline) {
        if (gated && !gated(base.scenario))
            continue;
        const ScenarioValue *got = nullptr;
        for (const ScenarioValue &m : measured)
            if (m.scenario == base.scenario)
                got = &m;
        if (!got) {
            std::fprintf(stderr,
                         "%s: baseline scenario '%s' missing from "
                         "this run (have:",
                         tool, base.scenario.c_str());
            for (const ScenarioValue &m : measured)
                std::fprintf(stderr, " %s", m.scenario.c_str());
            std::fprintf(stderr, "); refresh the baseline\n");
            return 2;
        }
        const double bound =
            spec.higherIsBetter ? base.value * (1.0 - opts.maxRegression)
                                : base.value * (1.0 + opts.maxRegression);
        const bool ok = spec.higherIsBetter ? got->value >= bound
                                            : got->value <= bound;
        std::printf("%s [%s]: %.*f %s vs baseline %.*f (%s %.*f): %s\n",
                    spec.label, base.scenario.c_str(), spec.precision,
                    got->value, spec.unit, spec.precision, base.value,
                    spec.higherIsBetter ? "floor" : "ceiling",
                    spec.precision, bound, ok ? "ok" : "REGRESSION");
        if (!ok)
            failed = true;
    }
    return failed ? 1 : 0;
}

/** A run digest as BENCH_*.json rows record it: 16 hex digits. */
inline std::string
hexDigest(std::uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

/** One simulated row as measured: its digest and one gated field. */
struct ExactRow
{
    std::string scenario;
    std::string digest;
    double value;
};

/**
 * Gate simulated rows exactly: every baseline row's `digest` and
 * @p field must equal what this run measured, bit for bit (the JSON
 * writer's %.17g round-trips a double). Simulated results depend
 * only on the seed and the model, so any difference is a behaviour
 * change, never host noise; a tolerance would hide it. Prints one
 * line per baseline row, @p field with @p precision digits after
 * the point.
 *
 * @return 0 when every row matches, 1 on a mismatch, 2 when the
 *         baseline is unreadable or names a scenario this run did
 *         not produce.
 */
inline int
gateExact(const char *tool, const std::string &baseline_path,
          const char *field, int precision,
          const std::vector<ExactRow> &measured)
{
    const std::vector<ScenarioText> digests =
        readBaselineText(baseline_path, "digest");
    const std::vector<ScenarioValue> values =
        readBaseline(baseline_path, field);
    if (digests.empty() || digests.size() != values.size()) {
        std::fprintf(stderr,
                     "%s: cannot read digest and %s from every "
                     "scenario row of baseline '%s'\n",
                     tool, field, baseline_path.c_str());
        return 2;
    }
    bool failed = false;
    for (std::size_t i = 0; i < digests.size(); ++i) {
        const ScenarioText &digest = digests[i];
        const ScenarioValue &base = values[i];
        const ExactRow *got = nullptr;
        for (const ExactRow &m : measured)
            if (m.scenario == digest.scenario)
                got = &m;
        if (!got || base.scenario != digest.scenario) {
            std::fprintf(stderr,
                         "%s: baseline scenario '%s' missing from "
                         "this run (have:",
                         tool, digest.scenario.c_str());
            for (const ExactRow &m : measured)
                std::fprintf(stderr, " %s", m.scenario.c_str());
            std::fprintf(stderr, "); refresh the baseline\n");
            return 2;
        }
        const bool ok =
            got->digest == digest.text && got->value == base.value;
        std::printf("exact gate [%s]: digest %s, %s %.*f vs baseline "
                    "digest %s, %.*f: %s\n",
                    digest.scenario.c_str(), got->digest.c_str(),
                    field, precision, got->value, digest.text.c_str(),
                    precision, base.value, ok ? "ok" : "MISMATCH");
        if (!ok)
            failed = true;
    }
    return failed ? 1 : 0;
}

} // namespace latr::bench

#endif // LATR_BENCH_BENCH_UTIL_HH_
