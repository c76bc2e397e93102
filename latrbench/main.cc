// latrbench: the repository's benchmark. Runs one seeded workload
// (serve, bigbox, lazycache or fuzz) round after round against the
// latr library for a fixed host-time budget, checks every round's
// outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   latrbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject-skip-latr-sweep] [--git-sha SHA]
//             [--src-digest HEX]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced rounds and reports the per-layer metrics: model
// counters from the accessors, and host times from spans recorded
// around the calls this file's workloads make into the library.
// Exit status: 0 when every check passed, 1 when one failed, 2 on
// a malformed command line.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hh"
#include "report.hh"
#include "workloads.hh"

using namespace latrbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    bool injectSkipLatrSweep = false;
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "latrbench: %s\n"
                 "usage: latrbench --workload serve|bigbox|lazycache|fuzz"
                 " --seed N --seconds S --trace 0|1"
                 " [--inject-skip-latr-sweep] [--git-sha SHA]"
                 " [--src-digest HEX]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t max)
{
    if (!*text || std::strspn(text, "0123456789") != std::strlen(text) ||
        std::strlen(text) > 19)
        usage((std::string(flag) + " wants a whole number").c_str());
    const std::uint64_t v = std::strtoull(text, nullptr, 10);
    if (v > max)
        usage((std::string(flag) + " is out of range").c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (!seen.insert(flag).second)
            usage(("repeated " + flag).c_str());
        if (flag == "--inject-skip-latr-sweep") {
            a.injectSkipLatrSweep = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUnsigned("--seed", v, 1ULL << 40);
        else if (flag == "--seconds")
            a.seconds = unsigned(parseUnsigned("--seconds", v, 3600));
        else if (flag == "--trace")
            a.trace = parseUnsigned("--trace", v, 1) == 1;
        else if (flag == "--git-sha")
            a.gitSha = v;
        else if (flag == "--src-digest")
            a.srcDigest = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("--workload must be serve, bigbox, lazycache or fuzz");
    if (a.seconds == 0)
        usage("--seconds must be at least 1");
    if (a.injectSkipLatrSweep && a.workload != "fuzz")
        usage("--inject-skip-latr-sweep applies to the fuzz workload");
    return a;
}

/** Host-time figures reduced from the traced rounds' spans. */
struct SpanTotals
{
    /** Span durations (ns) by span name. */
    std::map<std::string, std::vector<double>> durations;
    /** Per traced round: self seconds by layer. */
    std::vector<std::map<std::string, double>> layerSelf;
    /** Per traced round: share of run_s no layer span covers. */
    std::vector<double> unattributed;
};

void
reduceSpans(const SpanRecorder &rec, double run_s, SpanTotals &out,
            bool per_round)
{
    const std::vector<Span> &spans = rec.spans();
    const std::vector<std::uint64_t> self = selfTimes(spans);
    std::map<std::string, double> layers;
    double attributed = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &name = rec.name(spans[i].name);
        out.durations[name].push_back(
            double(spans[i].end - spans[i].start));
        const std::string layer = layerOf(name);
        if (layer == "bench")
            continue;
        layers[layer] += double(self[i]) / 1e9;
        if (spans[i].run)
            attributed += double(self[i]) / 1e9;
    }
    if (!per_round)
        return;
    out.layerSelf.push_back(layers);
    out.unattributed.push_back(run_s > 0 ? (run_s - attributed) / run_s
                                         : 0.0);
}

/** The CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/**
 * Run the calling thread on @p cpu only. On a shared host, the speed
 * of one CPU moves with its neighbours' load for many seconds at a
 * time, and a lone busy thread stays on one CPU, so a whole run took
 * that CPU's level. Moving each round to the next CPU makes a run's
 * median cover all of them.
 */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
#ifdef M_MMAP_THRESHOLD
    // Pin glibc's mmap threshold at its default. Left dynamic, it
    // rises after the first large free, and whether a later Machine's
    // frame and LLC tables land on already-faulted heap pages then
    // depends on the seed's allocation history: set-up time differed
    // 3x between seeds. Pinned, every large table is a fresh mapping,
    // as in a process that builds one machine.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    try {
        WorkloadOptions opt;
        opt.seed = args.seed;
        opt.injectSkipLatrSweep = args.injectSkipLatrSweep;

        const auto start = std::chrono::steady_clock::now();
        auto elapsed = [&] {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };

        SpanRecorder recorder;
        SpanTotals spans;
        std::vector<Round> untraced, traced;
        Outcome outcome;
        std::vector<std::string> failures;
        // Several rounds even when one outlasts the budget, so set-up
        // and run times are medians; the traced run alternates
        // untraced and traced rounds so their run_s compare.
        const std::vector<int> cpus = allowedCpus();
        for (unsigned i = 0;; ++i) {
            const bool tracedRound = args.trace && i % 2 == 1;
            // Untraced and traced rounds each cycle through every CPU.
            if (!cpus.empty())
                pinTo(cpus[(args.trace ? i / 2 : i) % cpus.size()]);
            Round r = runRound(args.workload, opt,
                               tracedRound ? &recorder : nullptr);
            if (!untraced.empty())
                checkReproduces(untraced.front(), r);
            for (const Op &op : r.ops) {
                outcome.add(op.ok);
                if (!op.ok && failures.size() < 10)
                    failures.push_back(op.label + " (round " +
                                       std::to_string(i + 1) +
                                       "): " + op.why);
            }
            if (tracedRound) {
                reduceSpans(recorder, r.runS, spans, true);
                recorder.clear();
                traced.push_back(std::move(r));
            } else {
                untraced.push_back(std::move(r));
            }
            const bool enough = untraced.size() >= 3 &&
                                (!args.trace || traced.size() >= 2);
            if (enough && elapsed() >= args.seconds)
                break;
        }
        if (args.trace) {
            runConstructorProbes(args.workload, recorder);
            reduceSpans(recorder, 0, spans, false);
        }

        const Round &first = untraced.front();
        auto medianOf = [](const std::vector<Round> &rounds, auto get) {
            std::vector<double> v;
            for (const Round &r : rounds)
                v.push_back(get(r));
            return median(v);
        };

        std::map<std::string, double> values;
        std::map<std::string, std::string> notes = first.notes;
        if (!args.trace) {
            values["setup_s"] =
                medianOf(untraced, [](const Round &r) { return r.setupS; });
            values["run_s"] =
                medianOf(untraced, [](const Round &r) { return r.runS; });
            values["peak_rss_mb"] = double(peakRssKb()) / 1024.0;
            values["failed_frac"] = outcome.failedFrac();
            for (const auto &[k, v] : first.sim)
                values[k] = v;
        } else {
            for (const auto &[k, v] : first.sim)
                values[k] = v;
            auto spanSummary = [&](const std::string &span,
                                   const std::string &metric, double scale,
                                   bool with_top) {
                auto it = spans.durations.find(span);
                if (it == spans.durations.end())
                    return;
                std::vector<double> d = it->second;
                for (double &x : d)
                    x /= scale;
                const Summary s = summarize(d);
                values[metric] = s.p50;
                values[metric + ".count"] = double(s.count);
                char note[96];
                std::snprintf(note, sizeof note, "p50 n=%llu top=%s:%.17g",
                              static_cast<unsigned long long>(s.count),
                              levelName(s.topLevel).c_str(), s.top);
                notes[metric] = note;
                if (with_top) {
                    values[metric + ".top"] = s.top;
                    notes[metric + ".top"] = levelName(s.topLevel) +
                                             " n=" + std::to_string(s.count);
                }
            };
            spanSummary("machine.construct", "machine.construct_ms", 1e6,
                        false);
            spanSummary("mem.frames_ctor", "mem.frames_ctor_ms", 1e6, false);
            spanSummary("hw.llc_ctor", "hw.llc_ctor_ms", 1e6, false);
            for (const char *call : {"mmap", "munmap", "touch", "numa_sample"})
                spanSummary(std::string("os.") + call,
                            std::string("os.") + call + "_host_us", 1e3,
                            false);
            spanSummary("os.run", "os.run_host_ms", 1e6, false);
            spanSummary("serve.generate", "serve.generate_ms", 1e6, false);
            spanSummary("workload.lazycache.start",
                        "workload.lazycache.start_ms", 1e6, false);
            spanSummary("check.generate", "check.generate_ms", 1e6, true);
            spanSummary("check.diff", "check.diff_ms", 1e6, true);
            for (const std::string &p : policyTags()) {
                spanSummary("check.run." + p, "check.run_ms." + p, 1e6, true);
                const double runS = medianOf(traced, [&](const Round &r) {
                    auto it = r.policyRunS.find(p);
                    return it == r.policyRunS.end() ? 0.0 : it->second;
                });
                const double events = values["sim.events." + p];
                values["sim.host_ns_per_event." + p] =
                    events > 0 ? runS * 1e9 / events : 0.0;
                if (args.workload == "serve")
                    values["serve.replay_s." + p] = runS;
            }
            const double tracedRun =
                medianOf(traced, [](const Round &r) { return r.runS; });
            const double untracedRun =
                medianOf(untraced, [](const Round &r) { return r.runS; });
            values["trace.overhead_frac"] =
                (tracedRun - untracedRun) / untracedRun;
            values["trace.unattributed_frac"] = median(spans.unattributed);
            for (const std::string &l : selfTimeLayers()) {
                std::vector<double> self;
                for (const auto &round : spans.layerSelf) {
                    auto it = round.find(l);
                    self.push_back(it == round.end() ? 0.0 : it->second);
                }
                values[l + ".self_s"] = median(self);
            }
        }

        std::printf("provenance workload=%s seed=%llu host_cpus=%u "
                    "build=%s compiler=\"%s\" git_sha=%s src_digest=%s "
                    "seconds=%u trace=%d rounds=%zu traced_rounds=%zu\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    std::thread::hardware_concurrency(),
                    LATRBENCH_BUILD_TYPE, LATRBENCH_COMPILER,
                    args.gitSha.c_str(), args.srcDigest.c_str(),
                    args.seconds, args.trace ? 1 : 0, untraced.size(),
                    traced.size());
        std::printf("note simulated metrics have no reference on these "
                    "traffic shapes; no error figure is given\n");
        for (const auto &[p, d] : first.digests)
            std::printf("digest %s.%s %016llx\n", args.workload.c_str(),
                        p.c_str(), static_cast<unsigned long long>(d));
        for (const std::string &f : failures)
            std::printf("failure %s\n", f.c_str());

        std::vector<Metric> result;
        for (const MetricSpec &spec : metricSpecs()) {
            if (spec.endToEnd == args.trace)
                continue;
            auto it = values.find(spec.name);
            if (it != values.end()) {
                auto n = notes.find(spec.name);
                std::printf("%s\n",
                            textLine({spec.name, it->second, spec.unit,
                                      n == notes.end() ? "" : n->second})
                                .c_str());
            }
            if (spec.listed)
                result.push_back(
                    {spec.name, it == values.end() ? 0.0 : it->second,
                     spec.unit, ""});
        }
        std::printf("%s\n", resultJson(outcome, result).c_str());
        return outcome.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "latrbench: %s\n", e.what());
        return 1;
    }
}
