/**
 * @file
 * Every metric the benchmark reports, by name and unit, in print
 * order. main.cc prints from this table, tests.cc checks its names
 * and units, and `run.py --self-test` checks that each workload's
 * result line carries exactly the metrics BENCHMARK.json lists.
 */

#ifndef LATRBENCH_METRICS_HH_
#define LATRBENCH_METRICS_HH_

#include <string>
#include <vector>

namespace latrbench
{

/** The five policies as they appear in metric names, in run order. */
inline const std::vector<std::string> &
policyTags()
{
    static const std::vector<std::string> tags = {
        "linux", "latr", "abis", "barrelfish", "pred"};
    return tags;
}

/**
 * Layers whose self time the traced run reports: those that hold
 * spans inside a round (mem and hw appear only in the constructor
 * probes, outside any round).
 */
inline const std::vector<std::string> &
selfTimeLayers()
{
    static const std::vector<std::string> layers = {
        "machine", "os", "serve", "workload", "check"};
    return layers;
}

struct MetricSpec
{
    std::string name;
    std::string unit;
    /** End to end (untraced run) or per layer (traced run). */
    bool endToEnd = false;
    /**
     * Listed in BENCHMARK.json, so present in the result line on
     * every workload. An end-to-end metric is listed only if every
     * workload measures it and it is never 0; a listed per-layer
     * metric reads 0 on a workload that does not exercise its layer.
     * Unlisted metrics print on the text lines where they apply.
     */
    bool listed = false;
};

inline std::vector<MetricSpec>
metricSpecs()
{
    std::vector<MetricSpec> out;
    auto e2e = [&](const std::string &n, const char *u, bool listed) {
        out.push_back({n, u, true, listed});
    };
    auto layer = [&](const std::string &n, const char *u,
                     bool listed = true) {
        out.push_back({n, u, false, listed});
    };
    auto perPolicy = [&](const std::string &stem, const char *u,
                         bool listed = true) {
        for (const std::string &p : policyTags())
            layer(stem + "." + p, u, listed);
    };

    e2e("setup_s", "s", true);
    e2e("run_s", "s", true);
    e2e("peak_rss_mb", "MB", true);
    e2e("failed_frac", "frac", false);
    for (const std::string &p : policyTags())
        e2e("sim_p50_us." + p, "us", false);
    for (const std::string &p : policyTags())
        e2e("sim_p99_us." + p, "us", false);
    e2e("sim_ops_per_s.linux", "1/s", false);
    e2e("sim_ops_per_s.latr", "1/s", false);

    layer("machine.construct_ms", "ms");
    layer("machine.construct_ms.count", "count", false);
    layer("mem.frames_ctor_ms", "ms");
    layer("hw.llc_ctor_ms", "ms");
    layer("mem.frames_allocated", "count");

    perPolicy("sim.events", "count");
    perPolicy("sim.host_ns_per_event", "ns");
    layer("sim.simulated_ms", "ms");

    layer("hw.tlb_lookups", "count");
    layer("hw.tlb_miss_ratio", "ratio");
    layer("hw.tlb_flushes", "count");
    perPolicy("hw.ipis_sent", "count");
    perPolicy("hw.ipi_broadcasts", "count");
    perPolicy("hw.ipis_per_broadcast", "ratio", false);

    layer("os.ticks", "count");
    for (const char *call : {"mmap", "munmap", "touch", "numa_sample"}) {
        layer(std::string("os.") + call + "_host_us", "us");
        layer(std::string("os.") + call + "_host_us.count", "count",
              false);
    }
    layer("os.run_host_ms", "ms");
    layer("os.run_host_ms.count", "count", false);
    for (const char *stat : {"munmap_sim_us", "shootdown_sim_us"})
        for (const char *q : {"p50", "p99"})
            perPolicy(std::string("os.") + stat + "." + q, "us");

    layer("vm.minor_faults", "count");
    layer("vm.numa_faults", "count");

    perPolicy("tlbcoh.shootdowns", "count");
    perPolicy("tlbcoh.remote_interrupts", "count");
    layer("tlbcoh.latr.sweeps", "count");
    layer("tlbcoh.latr.sweep_match_ratio", "ratio");
    layer("tlbcoh.latr.fallback_ratio", "ratio");
    layer("tlbcoh.latr.reclaimed_pages", "count");
    layer("tlbcoh.abis.shootdowns_avoided", "count");
    layer("tlbcoh.pred.ipis_saved", "count");
    layer("tlbcoh.pred.mispredict_ratio", "ratio");

    layer("numa.samples", "count");
    layer("numa.migration_unmaps", "count");

    layer("serve.generate_ms", "ms");
    perPolicy("serve.replay_s", "s");
    perPolicy("serve.completed", "count");
    perPolicy("serve.dropped_churn", "count");
    perPolicy("serve.max_queue_depth", "count");

    layer("workload.lazycache.start_ms", "ms");
    layer("workload.lazycache.hit_ratio", "ratio");
    layer("workload.lazycache.revalidation_fails", "count");

    layer("check.generate_ms", "ms");
    layer("check.generate_ms.top", "ms");
    for (const std::string &p : policyTags()) {
        layer("check.run_ms." + p, "ms");
        layer("check.run_ms." + p + ".top", "ms");
    }
    layer("check.diff_ms", "ms");
    layer("check.diff_ms.top", "ms");
    layer("check.scripts", "count", false);
    layer("check.violations", "count");
    layer("check.divergences", "count");

    layer("trace.overhead_frac", "frac");
    layer("trace.unattributed_frac", "frac");
    for (const std::string &l : selfTimeLayers())
        layer(l + ".self_s", "s");
    return out;
}

} // namespace latrbench

#endif // LATRBENCH_METRICS_HH_
