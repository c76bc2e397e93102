// Tests of the benchmark's own arithmetic and accounting: the
// percentile rule, span self times, failure counting, and the metric
// table. Run through `python3 latrbench/run.py --self-test`, or
// directly: latrbench_tests (exit 0 when every check passes).

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "metrics.hh"
#include "report.hh"
#include "sim/stats.hh"
#include "workloads.hh"

using namespace latrbench;

namespace
{

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,  \
                         __LINE__, #cond);                               \
            ++failures;                                                  \
        }                                                                \
    } while (0)

void
testPercentileRule()
{
    CHECK(samplesBeyond(1000, 1) == 500);
    CHECK(samplesBeyond(1000, 2) == 100);
    CHECK(samplesBeyond(1000, 3) == 10);
    CHECK(samplesBeyond(1000, 4) == 1);

    // The highest level with at least ten samples beyond it.
    CHECK(topLevel(0) == 1);
    CHECK(topLevel(19) == 1);
    CHECK(topLevel(99) == 1);
    CHECK(topLevel(100) == 2);
    CHECK(topLevel(999) == 2);
    CHECK(topLevel(1000) == 3);
    CHECK(topLevel(9999) == 3);
    CHECK(topLevel(10000) == 4);
    CHECK(topLevel(32400) == 4);

    CHECK(levelName(1) == "p50");
    CHECK(levelName(2) == "p90");
    CHECK(levelName(3) == "p99");
    CHECK(levelName(4) == "p99.9");
    CHECK(levelName(5) == "p99.99");

    // 1..1000 shuffled: p50 = 500, top = p99 = 990, and exactly ten
    // samples lie beyond the top.
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i)
        v.push_back(double((i * 7919) % 1000 + 1));
    const Summary s = summarize(v);
    CHECK(s.count == 1000);
    CHECK(s.topLevel == 3);
    CHECK(s.p50 == 500.0);
    CHECK(s.top == 990.0);
    unsigned beyond = 0;
    for (double x : v)
        beyond += x > s.top;
    CHECK(beyond == 10);

    // Same nearest-rank rule as the library's Distribution.
    latr::Distribution d;
    for (double x : v)
        d.sample(x);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        CHECK(nearestRank(sorted, q) == d.percentile(q));

    // Too few samples for any level: the median stands in.
    const Summary few = summarize({3.0, 1.0, 2.0});
    CHECK(few.topLevel == 1);
    CHECK(few.p50 == 2.0 && few.top == 2.0);
    CHECK(summarize({}).count == 0);

    CHECK(median({}) == 0.0);
    CHECK(median({5.0, 1.0, 3.0}) == 3.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

Span
span(std::int32_t parent, std::uint64_t start, std::uint64_t end)
{
    Span s;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

void
testSelfTimes()
{
    // root [0,100) has children A [10,30) and B [20,50), which overlap
    // each other; A has a grandchild [12,18).
    std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 30),
                               span(0, 20, 50), span(1, 12, 18)};
    std::vector<std::uint64_t> self = selfTimes(spans);
    CHECK(self[0] == 60); // 100 - |[10,50)|: the overlap counts once
    CHECK(self[1] == 14); // 20 - 6
    CHECK(self[2] == 30);
    CHECK(self[3] == 6);

    // A child that runs past its parent's end is clipped; a child
    // nested inside a sibling's interval adds nothing.
    spans = {span(-1, 0, 10), span(0, 5, 20), span(0, 6, 8)};
    self = selfTimes(spans);
    CHECK(self[0] == 5);
    CHECK(self[1] == 15);

    // A child wholly outside its parent covers nothing.
    spans = {span(-1, 10, 20), span(0, 30, 40)};
    CHECK(selfTimes(spans)[0] == 10);

    // The recorder nests, groups and phases what Scoped opens.
    SpanRecorder rec;
    const std::uint32_t outer = rec.intern("bench.outer");
    const std::uint32_t inner = rec.intern("os.inner");
    CHECK(rec.intern("bench.outer") == outer);
    rec.nextGroup();
    rec.setRunPhase(true);
    {
        Scoped a(&rec, outer);
        Scoped b(&rec, inner);
    }
    rec.nextGroup();
    { Scoped c(&rec, inner); }
    { Scoped untraced(nullptr, inner); }
    const std::vector<Span> &got = rec.spans();
    CHECK(got.size() == 3);
    CHECK(got[0].parent == -1 && got[1].parent == 0 && got[2].parent == -1);
    CHECK(got[0].group == got[1].group && got[2].group != got[0].group);
    CHECK(got[1].run);
    CHECK(got[0].start <= got[1].start && got[1].end <= got[0].end);
    CHECK(rec.name(got[1].name) == "os.inner");
    CHECK(layerOf("os.inner") == "os");
    CHECK(layerOf("check.run.latr") == "check");
    const std::vector<std::uint64_t> s = selfTimes(got);
    CHECK(s[0] + s[1] == got[0].end - got[0].start);
}

void
testFailureCounting()
{
    Outcome o;
    CHECK(o.failedFrac() == 0.0);
    o.add(true);
    o.add(true);
    o.add(false);
    o.add(true);
    CHECK(o.attempted == 4 && o.failed == 1);
    CHECK(o.failedFrac() == 0.25);

    // A round that does not reproduce the first: a changed op digest
    // fails that op alone; a changed simulated metric fails them all;
    // an op that already failed counts once.
    Round first;
    for (int i = 0; i < 3; ++i)
        first.ops.push_back({"op" + std::to_string(i), 100u + i, true, ""});
    first.sim["sim_p99_us.linux"] = 925.695;
    Round same = first;
    checkReproduces(first, same);
    for (const Op &op : same.ops)
        CHECK(op.ok);
    Round oneOff = first;
    oneOff.ops[1].digest ^= 1;
    checkReproduces(first, oneOff);
    CHECK(oneOff.ops[0].ok && !oneOff.ops[1].ok && oneOff.ops[2].ok);
    Round simOff = first;
    simOff.sim["sim_p99_us.linux"] += 1e-9;
    simOff.ops[0].ok = false;
    simOff.ops[0].why = "reuse invariant";
    checkReproduces(first, simOff);
    Outcome counted;
    for (const Op &op : simOff.ops)
        counted.add(op.ok);
    CHECK(counted.attempted == 3 && counted.failed == 3);
    CHECK(simOff.ops[0].why == "reuse invariant");

    // The fuzz campaign counts one op per script and fails a script
    // when LATR's sweep is broken.
    WorkloadOptions opt;
    Round clean = runRound("fuzz", opt, nullptr);
    Outcome c;
    for (const Op &op : clean.ops)
        c.add(op.ok);
    CHECK(c.attempted == clean.sim["check.scripts"]);
    CHECK(c.failed == 0);
    CHECK(clean.sim["check.violations"] == 0);
    opt.injectSkipLatrSweep = true;
    Round broken = runRound("fuzz", opt, nullptr);
    Outcome b;
    for (const Op &op : broken.ops)
        b.add(op.ok);
    CHECK(b.attempted == c.attempted);
    CHECK(b.failed > 0);
    CHECK(broken.sim["check.violations"] > 0);
}

void
testMetricTable()
{
    std::set<std::string> names;
    std::size_t listedE2e = 0, listedLayer = 0;
    for (const MetricSpec &m : metricSpecs()) {
        CHECK(validMetricName(m.name));
        CHECK(names.insert(m.name).second);
        CHECK(!m.unit.empty() && m.unit.size() <= 16);
        for (char ch : m.unit)
            CHECK(std::isalnum(static_cast<unsigned char>(ch)) ||
                  std::string("_/%.-").find(ch) != std::string::npos);
        (m.endToEnd ? listedE2e : listedLayer) += m.listed;
    }
    CHECK(listedE2e >= 1 && listedE2e <= 16);
    CHECK(listedLayer >= 1 && listedLayer <= 128);
    CHECK(names.count("setup_s"));

    CHECK(validMetricName("os.munmap_host_us"));
    CHECK(validMetricName("1-a_b.c"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName(".hidden"));
    CHECK(!validMetricName("sim p99"));
    CHECK(!validMetricName("sim/p99"));
    CHECK(!validMetricName(std::string(65, 'a')));

    // Every metric the benchmark's definition names.
    std::vector<std::string> want = {
        "setup_s", "run_s", "peak_rss_mb", "failed_frac",
        "sim_ops_per_s.linux", "sim_ops_per_s.latr",
        "machine.construct_ms", "mem.frames_ctor_ms", "hw.llc_ctor_ms",
        "mem.frames_allocated", "sim.simulated_ms", "hw.tlb_lookups",
        "hw.tlb_miss_ratio", "hw.tlb_flushes", "os.ticks",
        "os.mmap_host_us", "os.munmap_host_us", "os.touch_host_us",
        "os.numa_sample_host_us", "os.run_host_ms", "vm.minor_faults",
        "vm.numa_faults", "tlbcoh.latr.sweeps",
        "tlbcoh.latr.sweep_match_ratio", "tlbcoh.latr.fallback_ratio",
        "tlbcoh.latr.reclaimed_pages", "tlbcoh.abis.shootdowns_avoided",
        "tlbcoh.pred.ipis_saved", "tlbcoh.pred.mispredict_ratio",
        "numa.samples", "numa.migration_unmaps", "serve.generate_ms",
        "workload.lazycache.start_ms", "workload.lazycache.hit_ratio",
        "workload.lazycache.revalidation_fails", "check.generate_ms",
        "check.diff_ms", "check.violations", "check.divergences",
        "trace.overhead_frac", "trace.unattributed_frac"};
    for (const std::string &p : policyTags())
        for (const char *stem :
             {"sim_p50_us", "sim_p99_us", "sim.events",
              "sim.host_ns_per_event", "hw.ipis_sent", "hw.ipi_broadcasts",
              "hw.ipis_per_broadcast", "os.munmap_sim_us.p50",
              "os.munmap_sim_us.p99", "os.shootdown_sim_us.p50",
              "os.shootdown_sim_us.p99", "tlbcoh.shootdowns",
              "tlbcoh.remote_interrupts", "serve.replay_s",
              "serve.completed", "serve.dropped_churn",
              "serve.max_queue_depth", "check.run_ms"})
            want.push_back(std::string(stem) + "." + p);
    for (const std::string &w : want) {
        if (!names.count(w))
            std::fprintf(stderr, "missing metric %s\n", w.c_str());
        CHECK(names.count(w));
    }

    // The text line carries the name, the value with all its digits,
    // and the unit; the result line is the contract's JSON.
    CHECK(textLine({"run_s", 0.125, "s", ""}) == "metric run_s 0.125 s");
    CHECK(textLine({"x", 1.0 / 3.0, "s", "n=3"}) ==
          "metric x 0.33333333333333331 s n=3");
    Outcome o;
    o.add(true);
    CHECK(resultJson(o, {{"run_s", 2.5, "s", ""}}) ==
          "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
          "\"metrics\": {\"run_s\": {\"value\": 2.5, \"unit\": \"s\"}}}");
    o.add(false);
    CHECK(resultJson(o, {}).rfind("{\"correct\": false", 0) == 0);
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTimes();
    testFailureCounting();
    testMetricTable();
    if (failures) {
        std::fprintf(stderr, "latrbench_tests: %d checks failed\n",
                     failures);
        return 1;
    }
    std::printf("latrbench_tests: all checks passed\n");
    return 0;
}
