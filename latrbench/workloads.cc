#include "workloads.hh"

#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "check/executor.hh"
#include "check/script.hh"
#include "hw/cache.hh"
#include "machine/machine.hh"
#include "mem/frame_allocator.hh"
#include "os/kernel.hh"
#include "serve/serve.hh"
#include "sim/rng.hh"
#include "workload/lazycache.hh"

#include "metrics.hh"

namespace latrbench
{

using namespace latr;

namespace
{

// Work per round. Each is sized so one round takes about half a
// second of host time on a 4-CPU x86 VM (Release build): a 25 s run
// then takes its medians over some fifty rounds, spread over every
// CPU (see pinTo in main.cc).
constexpr Duration kServeDuration = 120 * kMsec;
constexpr unsigned kBigboxIterations = 800;
constexpr Duration kLazyWarmup = 20 * kMsec;
constexpr Duration kLazyMeasured = 100 * kMsec;
constexpr unsigned kFuzzScripts = 50;
/** Every kFuzzLargeEvery-th script runs on the 120-core machine. */
constexpr unsigned kFuzzLargeEvery = 8;

const PolicyKind kAllPolicies[] = {
    PolicyKind::LinuxSync, PolicyKind::Latr, PolicyKind::Abis,
    PolicyKind::Barrelfish, PolicyKind::Predictive};

const std::string &
tagOf(PolicyKind kind)
{
    return policyTags().at(static_cast<std::size_t>(kind));
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    return fnv(h, &v, sizeof v);
}

std::uint64_t
fnv(std::uint64_t h, const std::string &s)
{
    return fnv(fnv(h, s.size()), s.data(), s.size());
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

double
secondsSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t)
        .count();
}

/**
 * Spans from the benchmark's side of each call, and the host clock
 * that splits a round into set-up and run. With a null recorder only
 * the clock runs.
 */
class Tracer
{
  public:
    explicit Tracer(SpanRecorder *rec) : rec_(rec) {}

    std::uint32_t id(const std::string &n)
    {
        return rec_ ? rec_->intern(n) : 0;
    }

    Scoped span(std::uint32_t name) { return Scoped(rec_, name); }

    void
    nextGroup()
    {
        if (rec_)
            rec_->nextGroup();
    }

    /** Time @p f into @p acc, spans inside marked as run or set-up. */
    template <typename F>
    void
    phase(double &acc, bool run, F &&f)
    {
        if (rec_)
            rec_->setRunPhase(run);
        const auto t = std::chrono::steady_clock::now();
        f();
        acc += secondsSince(t);
    }

  private:
    SpanRecorder *rec_;
};

void
fail(Op &op, const std::string &why)
{
    if (op.ok)
        op.why = why;
    op.ok = false;
}

void
checkInvariants(Machine &m, Op &op)
{
    if (m.checker()->violations() != 0)
        fail(op, "reuse invariant: " +
                     std::to_string(m.checker()->violations()) +
                     " violations");
    op.digest = fnv(op.digest, m.checker()->violations());
}

void
add(Round &r, const std::string &key, double v)
{
    r.sim[key] += v;
}

/**
 * Fold one finished machine's model counters into the round. Read
 * only through public accessors, so engine internals can change
 * underneath without touching the benchmark.
 */
void
collectMachine(Machine &m, PolicyKind kind, Round &r)
{
    const std::string &p = tagOf(kind);
    StatRegistry &st = m.stats();
    add(r, "sim.events." + p, double(m.queue().executed()));
    add(r, "sim.simulated_ms", double(m.now()) / 1e6);
    std::uint64_t lookups = 0, misses = 0, flushes = 0;
    for (CoreId c = 0; c < m.topo().totalCores(); ++c) {
        const Tlb &tlb = m.scheduler().tlbOf(c);
        lookups += tlb.l1Hits() + tlb.l2Hits() + tlb.misses();
        misses += tlb.misses();
        flushes += tlb.flushes();
    }
    add(r, "hw.tlb_lookups", double(lookups));
    add(r, "raw.tlb_misses", double(misses));
    add(r, "hw.tlb_flushes", double(flushes));
    add(r, "hw.ipis_sent." + p, double(m.ipi().ipisSent()));
    add(r, "hw.ipi_broadcasts." + p, double(m.ipi().broadcasts()));
    add(r, "os.ticks", double(m.scheduler().ticksProcessed()));
    add(r, "vm.minor_faults", double(st.counterValue("vm.minor_faults")));
    add(r, "vm.numa_faults", double(st.counterValue("vm.numa_faults")));
    add(r, "tlbcoh.shootdowns." + p,
        double(st.counterValue("coh.shootdowns")));
    add(r, "tlbcoh.remote_interrupts." + p,
        double(st.counterValue("coh.remote_interrupts")));
    for (const char *c :
         {"latr.sweeps", "latr.sweep_matches", "latr.states_saved",
          "latr.fallback_ipis", "latr.reclaimed_pages",
          "abis.shootdowns_avoided", "pred.ipis_saved",
          "pred.fallback_shootdowns", "pred.verifies", "numa.samples",
          "latr.migration_unmaps_completed"})
        add(r, std::string("raw.") + c, double(st.counterValue(c)));
    for (auto [stat, dist] :
         {std::pair{"munmap_sim_us", "munmap.latency_ns"},
          std::pair{"shootdown_sim_us", "munmap.shootdown_ns"}}) {
        Distribution &d = st.distribution(dist);
        for (auto [q, qn] : {std::pair{0.5, "p50"}, std::pair{0.99, "p99"}})
            r.sim[std::string("os.") + stat + "." + qn + "." + p] =
                d.count() ? d.percentile(q) / 1e3 : 0.0;
    }
    r.sim["mem.frames_allocated"] =
        std::max(r.sim["mem.frames_allocated"],
                 double(m.frames().allocatedFrames()));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Turn the raw.* sums of a round into the reported ratios. */
void
finishCounters(Round &r)
{
    auto raw = [&](const char *c) { return r.sim["raw." + std::string(c)]; };
    r.sim["hw.tlb_miss_ratio"] =
        ratio(raw("tlb_misses"), r.sim["hw.tlb_lookups"]);
    for (const auto &[p, digest] : r.digests)
        r.sim["hw.ipis_per_broadcast." + p] =
            ratio(r.sim["hw.ipis_sent." + p], r.sim["hw.ipi_broadcasts." + p]);
    r.sim["tlbcoh.latr.sweeps"] = raw("latr.sweeps");
    r.sim["tlbcoh.latr.sweep_match_ratio"] =
        ratio(raw("latr.sweep_matches"), raw("latr.sweeps"));
    r.sim["tlbcoh.latr.fallback_ratio"] =
        ratio(raw("latr.fallback_ipis"),
              raw("latr.states_saved") + raw("latr.fallback_ipis"));
    r.sim["tlbcoh.latr.reclaimed_pages"] = raw("latr.reclaimed_pages");
    r.sim["tlbcoh.abis.shootdowns_avoided"] = raw("abis.shootdowns_avoided");
    r.sim["tlbcoh.pred.ipis_saved"] = raw("pred.ipis_saved");
    r.sim["tlbcoh.pred.mispredict_ratio"] =
        ratio(raw("pred.fallback_shootdowns"), raw("pred.verifies"));
    r.sim["numa.samples"] = raw("numa.samples");
    r.sim["numa.migration_unmaps"] = raw("latr.migration_unmaps_completed");
    for (auto it = r.sim.begin(); it != r.sim.end();)
        it = it->first.rfind("raw.", 0) == 0 ? r.sim.erase(it) : std::next(it);
}

/** p50 and p99 of simulated latencies (ns) as sim_p50/p99_us.<p>. */
void
simLatency(Round &r, const std::string &p, std::uint64_t n,
           double p50_ns, double p99_ns, unsigned top_level, double top_ns)
{
    r.sim["sim_p50_us." + p] = p50_ns / 1e3;
    r.sim["sim_p99_us." + p] = p99_ns / 1e3;
    char note[96];
    std::snprintf(note, sizeof note, "n=%llu top=%s:%.17g",
                  static_cast<unsigned long long>(n),
                  levelName(top_level).c_str(), top_ns / 1e3);
    r.notes["sim_p99_us." + p] = note;
}

// ---------------------------------------------------------------- serve

Round
runServe(const WorkloadOptions &opt, SpanRecorder *rec)
{
    Round r;
    Tracer tr(rec);
    const std::uint32_t sGenerate = tr.id("serve.generate");
    const std::uint32_t sConstruct = tr.id("machine.construct");
    const std::uint32_t sReplay = tr.id("serve.replay");

    Latrace trace;
    tr.phase(r.setupS, false, [&] {
        ServeConfig cfg;
        cfg.duration = kServeDuration;
        cfg.seed = opt.seed;
        auto s = tr.span(sGenerate);
        trace = generateServeTrace(cfg);
    });
    for (PolicyKind kind : kAllPolicies) {
        const std::string &p = tagOf(kind);
        tr.nextGroup();
        std::unique_ptr<Machine> m;
        tr.phase(r.setupS, false, [&] {
            auto s = tr.span(sConstruct);
            m = std::make_unique<Machine>(MachineConfig::commodity2S16C(),
                                          kind);
        });
        ServeResult res;
        double runS = 0;
        tr.phase(runS, true, [&] {
            auto s = tr.span(sReplay);
            res = runServeTrace(*m, trace);
        });
        r.runS += runS;
        r.policyRunS[p] = runS;

        Op op{"serve." + p, fnv(kFnvBasis, res.digest), true, ""};
        checkInvariants(*m, op);
        if (res.completed == 0)
            fail(op, "no request completed");
        if (res.completed + res.droppedChurn != res.arrivals)
            fail(op, "completed + dropped != arrivals");
        r.digests[p] = op.digest;
        r.ops.push_back(op);

        const LatencyHistogram &h = res.latency;
        const unsigned top = topLevel(h.count());
        simLatency(r, p, h.count(), double(h.percentile(0.5)),
                   double(h.percentile(0.99)), top,
                   double(h.percentile(levelQuantile(top))));
        r.sim["serve.completed." + p] = double(res.completed);
        r.sim["serve.dropped_churn." + p] = double(res.droppedChurn);
        r.sim["serve.max_queue_depth." + p] = double(res.maxQueueDepth);
        collectMachine(*m, kind, r);
    }
    finishCounters(r);
    return r;
}

// --------------------------------------------------------------- bigbox

constexpr unsigned kPublishers = 20;
constexpr std::uint64_t kRegionPages = 64;
constexpr unsigned kSamplesPerIter = 8;

/** The generated bigbox op stream: all the seed decides. */
struct BigboxInput
{
    struct Iter
    {
        /** Per publisher: first page of its AutoNUMA scan burst. */
        std::vector<std::uint16_t> sampleBase;
        /** Per publisher: pages of its scratch mmap/touch/munmap. */
        std::vector<std::uint8_t> scratchPages;
        /** Global task issuing the wide shootdown, or -1. */
        int wideTask = -1;
        std::uint8_t widePages = 0;
    };
    std::vector<Iter> iters;
};

BigboxInput
generateBigbox(std::uint64_t seed, unsigned global_tasks)
{
    Rng rng(seed);
    BigboxInput in;
    in.iters.resize(kBigboxIterations);
    for (unsigned i = 0; i < kBigboxIterations; ++i) {
        BigboxInput::Iter &it = in.iters[i];
        for (unsigned p = 0; p < kPublishers; ++p) {
            it.sampleBase.push_back(
                static_cast<std::uint16_t>(rng.nextBounded(kRegionPages)));
            it.scratchPages.push_back(
                static_cast<std::uint8_t>(rng.nextRange(1, 3)));
        }
        // Every fourth iteration (bench_engine: every eighth), so the
        // wide shootdowns are over 1% of munmaps and reach the p99.
        if (i % 4 == 0) {
            it.wideTask = static_cast<int>(rng.nextBounded(global_tasks));
            it.widePages = static_cast<std::uint8_t>(rng.nextRange(2, 6));
        }
    }
    return in;
}

/**
 * The bench_engine big_machine shape on the default 120-core preset:
 * twenty publisher processes, one per core 0..19, AutoNUMA-sample
 * their own region and churn a small scratch mapping; two global
 * processes oversubscribe the other 100 cores, and every fourth
 * iteration one global task munmaps synchronously across all of them.
 */
Round
runBigbox(const WorkloadOptions &opt, SpanRecorder *rec)
{
    Round r;
    Tracer tr(rec);
    const std::uint32_t sConstruct = tr.id("machine.construct");
    const std::uint32_t sIter = tr.id("bench.bigbox.iteration");
    const std::uint32_t sMmap = tr.id("os.mmap");
    const std::uint32_t sMunmap = tr.id("os.munmap");
    const std::uint32_t sTouch = tr.id("os.touch");
    const std::uint32_t sSample = tr.id("os.numa_sample");
    const std::uint32_t sRun = tr.id("os.run");

    const MachineConfig preset = MachineConfig::largeNuma8S120C();
    const unsigned globalCores = preset.totalCores() - kPublishers;
    BigboxInput in;
    tr.phase(r.setupS, false,
             [&] { in = generateBigbox(opt.seed, globalCores); });

    for (PolicyKind kind : kAllPolicies) {
        const std::string &p = tagOf(kind);
        Op op{"bigbox." + p, kFnvBasis, true, ""};
        std::vector<double> latencies;
        latencies.reserve(kBigboxIterations * (kPublishers + 1));

        std::unique_ptr<Machine> m;
        auto mmap = [&](Task *t, std::uint64_t pages) {
            auto s = tr.span(sMmap);
            SyscallResult res = m->kernel().mmap(
                t, pages * kPageSize, kProtRead | kProtWrite);
            if (!res.ok)
                fail(op, "mmap failed");
            return res.addr;
        };
        auto touch = [&](Task *t, Addr a) {
            auto s = tr.span(sTouch);
            if (m->kernel().touch(t, a, true).faulted())
                fail(op, "touch segfaulted");
        };
        auto munmap = [&](Task *t, Addr a, std::uint64_t pages, bool sync) {
            auto s = tr.span(sMunmap);
            SyscallResult res =
                m->kernel().munmap(t, a, pages * kPageSize, sync);
            if (!res.ok)
                fail(op, "munmap failed");
            latencies.push_back(double(res.latency));
        };
        auto run = [&](Duration d) {
            auto s = tr.span(sRun);
            m->run(d);
        };

        std::vector<Task *> pubs(kPublishers);
        std::vector<Addr> region(kPublishers);
        std::vector<Task *> globalTasks;
        tr.nextGroup();
        tr.phase(r.setupS, false, [&] {
            {
                auto s = tr.span(sConstruct);
                m = std::make_unique<Machine>(preset, kind);
            }
            Kernel &k = m->kernel();
            for (unsigned i = 0; i < kPublishers; ++i) {
                pubs[i] = k.spawnTask(
                    k.createProcess("p" + std::to_string(i)), i);
                region[i] = mmap(pubs[i], kRegionPages);
                for (std::uint64_t pg = 0; pg < kRegionPages; ++pg)
                    touch(pubs[i], region[i] + pg * kPageSize);
            }
            for (unsigned g = 0; g < 2; ++g) {
                Process *global = k.createProcess("g" + std::to_string(g));
                for (CoreId c = kPublishers; c < preset.totalCores(); ++c) {
                    Task *t = k.spawnTask(global, c);
                    if (g == 0)
                        globalTasks.push_back(t);
                }
            }
        });

        double runS = 0;
        tr.phase(runS, true, [&] {
            run(2 * preset.cost.tickInterval);
            for (const BigboxInput::Iter &it : in.iters) {
                tr.nextGroup();
                auto s = tr.span(sIter);
                for (unsigned i = 0; i < kPublishers; ++i) {
                    const Vpn base = region[i] / kPageSize;
                    for (unsigned n = 0; n < kSamplesPerIter; ++n) {
                        auto ss = tr.span(sSample);
                        m->kernel().numaSample(
                            pubs[i],
                            base + (it.sampleBase[i] + n) % kRegionPages);
                    }
                    const Addr a = mmap(pubs[i], it.scratchPages[i]);
                    touch(pubs[i], a);
                    munmap(pubs[i], a, it.scratchPages[i], false);
                }
                if (it.wideTask >= 0) {
                    Task *t = globalTasks[std::size_t(it.wideTask)];
                    const Addr a = mmap(t, it.widePages);
                    for (std::size_t g = 0; g < globalTasks.size(); g += 8)
                        touch(globalTasks[g], a);
                    munmap(t, a, it.widePages, true);
                }
                run(200 * kUsec);
            }
            run(6 * kMsec);
        });
        r.runS += runS;
        r.policyRunS[p] = runS;

        for (double l : latencies)
            op.digest = fnv(op.digest, std::uint64_t(l));
        op.digest = fnv(op.digest, m->stats().dump());
        checkInvariants(*m, op);
        r.digests[p] = op.digest;
        r.ops.push_back(op);

        std::sort(latencies.begin(), latencies.end());
        const unsigned top = topLevel(latencies.size());
        simLatency(r, p, latencies.size(), nearestRank(latencies, 0.5),
                   nearestRank(latencies, 0.99), top,
                   nearestRank(latencies, levelQuantile(top)));
        collectMachine(*m, kind, r);
    }
    finishCounters(r);
    return r;
}

// ------------------------------------------------------------ lazycache

Round
runLazycache(const WorkloadOptions &opt, SpanRecorder *rec)
{
    Round r;
    Tracer tr(rec);
    const std::uint32_t sConstruct = tr.id("machine.construct");
    const std::uint32_t sStart = tr.id("workload.lazycache.start");
    const std::uint32_t sMeasure = tr.id("workload.lazycache.measure");

    for (PolicyKind kind : {PolicyKind::LinuxSync, PolicyKind::Latr}) {
        const std::string &p = tagOf(kind);
        tr.nextGroup();
        std::unique_ptr<Machine> m;
        std::unique_ptr<LazyCacheWorkload> cache;
        tr.phase(r.setupS, false, [&] {
            {
                auto s = tr.span(sConstruct);
                m = std::make_unique<Machine>(
                    MachineConfig::commodity2S16C(), kind);
            }
            LazyCacheConfig cfg;
            cfg.seed = opt.seed;
            cache = std::make_unique<LazyCacheWorkload>(*m, cfg);
            auto s = tr.span(sStart);
            cache->start();
        });
        LazyCacheResult res;
        double runS = 0;
        tr.phase(runS, true, [&] {
            auto s = tr.span(sMeasure);
            res = cache->measure(kLazyWarmup, kLazyMeasured);
        });
        r.runS += runS;
        r.policyRunS[p] = runS;

        Op op{"lazycache." + p, fnv(kFnvBasis, res.digest), true, ""};
        checkInvariants(*m, op);
        if (res.reads == 0 || res.writes == 0 || res.discardedPages == 0)
            fail(op, "a lazycache actor made no progress");
        r.digests[p] = op.digest;
        r.ops.push_back(op);

        r.sim["sim_ops_per_s." + p] = res.eventsPerSec;
        add(r, "raw.lazy_reads", double(res.reads));
        add(r, "raw.lazy_hits", double(res.hits));
        add(r, "workload.lazycache.revalidation_fails",
            double(res.revalidationFails));
        collectMachine(*m, kind, r);
    }
    r.sim["workload.lazycache.hit_ratio"] =
        ratio(r.sim["raw.lazy_hits"], r.sim["raw.lazy_reads"]);
    finishCounters(r);
    return r;
}

// ----------------------------------------------------------------- fuzz

std::uint64_t
runStateDigest(std::uint64_t h, const RunResult &run)
{
    h = fnv(h, run.invariantViolations);
    h = fnv(h, run.stalenessViolations);
    for (const auto &[slot, sig] : run.regionSig)
        h = fnv(fnv(h, slot), sig);
    for (std::uint64_t pages : run.mmPresentPages)
        h = fnv(h, pages);
    h = fnv(h, run.allocatedFrames);
    h = fnv(h, run.heldBackBytes);
    return fnv(h, run.latrFallbackIpis);
}

/**
 * A differential campaign as runFuzz runs it (PCID alternating,
 * every script under all five policies with both oracles, each run
 * diffed against Linux), but with the calls made here so each one
 * gets its own span, and with every failure counted rather than the
 * first one minimised.
 */
Round
runFuzzCampaign(const WorkloadOptions &opt, SpanRecorder *rec)
{
    Round r;
    Tracer tr(rec);
    const std::uint32_t sGenerate = tr.id("check.generate");
    const std::uint32_t sScript = tr.id("bench.fuzz.script");
    const std::uint32_t sDiff = tr.id("check.diff");
    std::vector<std::uint32_t> sRun;
    for (PolicyKind kind : kAllPolicies)
        sRun.push_back(tr.id("check.run." + tagOf(kind)));

    std::vector<Script> scripts;
    tr.phase(r.setupS, false, [&] {
        for (unsigned i = 0; i < kFuzzScripts; ++i) {
            GenOptions gen;
            gen.pcid = i % 2 == 1;
            gen.large = i % kFuzzLargeEvery == kFuzzLargeEvery - 1;
            auto s = tr.span(sGenerate);
            scripts.push_back(generateScript((opt.seed << 20) + i, gen));
        }
    });

    ExecOptions exec;
    exec.injectSkipLatrSweep = opt.injectSkipLatrSweep;
    std::map<std::string, std::uint64_t> policyDigest;
    for (const std::string &p : policyTags())
        policyDigest[p] = kFnvBasis;
    double violations = 0, divergences = 0;

    tr.phase(r.runS, true, [&] {
        for (std::size_t i = 0; i < scripts.size(); ++i) {
            tr.nextGroup();
            auto s = tr.span(sScript);
            Op op{"fuzz.script" + std::to_string(i), kFnvBasis, true, ""};
            std::vector<RunResult> runs;
            for (std::size_t k = 0; k < std::size(kAllPolicies); ++k) {
                auto rs = tr.span(sRun[k]);
                runs.push_back(runScript(scripts[i], kAllPolicies[k], exec));
            }
            {
                auto ds = tr.span(sDiff);
                for (std::size_t k = 1; k < runs.size(); ++k) {
                    const DiffResult d = diffStates(runs[0], runs[k]);
                    if (!d.equivalent) {
                        ++divergences;
                        fail(op, tagOf(runs[k].policy) +
                                     " diverges: " + d.divergence);
                    }
                }
            }
            for (const RunResult &run : runs) {
                const std::string &p = tagOf(run.policy);
                violations += double(run.invariantViolations +
                                     run.stalenessViolations);
                if (!run.clean())
                    fail(op, p + ": " +
                                 (run.firstStaleness.empty()
                                      ? run.firstInvariant
                                      : run.firstStaleness));
                op.digest = runStateDigest(op.digest, run);
                policyDigest[p] = runStateDigest(policyDigest[p], run);
            }
            r.ops.push_back(op);
        }
    });
    r.digests = policyDigest;
    r.sim["check.violations"] = violations;
    r.sim["check.divergences"] = divergences;
    r.sim["check.scripts"] = double(scripts.size());
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"serve", "bigbox",
                                                   "lazycache", "fuzz"};
    return names;
}

Round
runRound(const std::string &workload, const WorkloadOptions &opt,
         SpanRecorder *rec)
{
    if (workload == "serve")
        return runServe(opt, rec);
    if (workload == "bigbox")
        return runBigbox(opt, rec);
    if (workload == "lazycache")
        return runLazycache(opt, rec);
    if (workload == "fuzz")
        return runFuzzCampaign(opt, rec);
    throw std::invalid_argument("unknown workload " + workload);
}

void
checkReproduces(const Round &first, Round &r)
{
    const bool roundSame =
        r.sim == first.sim && r.digests == first.digests;
    for (std::size_t k = 0; k < r.ops.size(); ++k) {
        const bool same = roundSame && k < first.ops.size() &&
                          first.ops[k].digest == r.ops[k].digest;
        if (!same)
            fail(r.ops[k], "does not reproduce the first round");
    }
}

void
runConstructorProbes(const std::string &workload, SpanRecorder &rec)
{
    Tracer tr(&rec);
    std::vector<MachineConfig> presets;
    if (workload != "bigbox")
        presets.push_back(MachineConfig::commodity2S16C());
    if (workload == "bigbox" || workload == "fuzz")
        presets.push_back(MachineConfig::largeNuma8S120C());
    rec.setRunPhase(false);
    // Each span covers construction only; the objects die after it.
    for (const MachineConfig &c : presets) {
        tr.nextGroup();
        std::unique_ptr<Machine> m;
        if (workload == "fuzz") {
            auto s = tr.span(tr.id("machine.construct"));
            m = std::make_unique<Machine>(c, PolicyKind::LinuxSync);
        }
        std::unique_ptr<FrameAllocator> frames;
        {
            auto s = tr.span(tr.id("mem.frames_ctor"));
            frames = std::make_unique<FrameAllocator>(c.sockets,
                                                      c.framesPerNode);
        }
        std::vector<std::unique_ptr<LlcCache>> llcs;
        auto s = tr.span(tr.id("hw.llc_ctor"));
        for (unsigned i = 0; i < c.sockets; ++i)
            llcs.push_back(std::make_unique<LlcCache>(
                c.llcBytesPerSocket, c.llcWays, c.llcLineBytes));
    }
}

} // namespace latrbench
