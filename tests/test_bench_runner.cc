// Tests for bench::ParallelRunner (bench/bench_runner.hh), the pool
// that runs independent simulations across threads: results come back
// in submission order whatever the job count, concurrent machines do
// not disturb one another, and a runner is reusable. Run under
// ThreadSanitizer (LATR_TSAN) these are the data-race check on the
// only threads the project starts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_runner.hh"
#include "machine/machine.hh"
#include "workload/microbench.hh"

namespace latr
{
namespace
{

/** Deterministic CPU work whose cost falls with @p i. */
std::uint64_t
spin(std::uint64_t i, std::uint64_t n)
{
    std::uint64_t h = 1469598103934665603ULL ^ i;
    for (std::uint64_t k = 0; k < (n - i) * 2000; ++k)
        h = (h ^ k) * 1099511628211ULL;
    return h;
}

/** One small machine simulation: its full stat dump. */
std::string
simulate(PolicyKind kind, unsigned sharing_cores)
{
    Machine machine(MachineConfig::commodity2S16C(), kind);
    MunmapMicrobenchConfig cfg;
    cfg.sharingCores = sharing_cores;
    cfg.iterations = 40;
    cfg.warmupIterations = 5;
    runMunmapMicrobench(machine, cfg);
    return machine.stats().dump();
}

std::vector<std::string>
simulateAll(unsigned jobs)
{
    bench::ParallelRunner<std::string> runner(jobs);
    for (PolicyKind kind : {PolicyKind::LinuxSync, PolicyKind::Latr,
                            PolicyKind::Abis, PolicyKind::Predictive})
        for (unsigned cores : {4u, 16u})
            runner.submit([kind, cores] { return simulate(kind, cores); });
    return runner.run();
}

TEST(BenchRunner, ResultsComeBackInSubmissionOrder)
{
    // Early jobs do the most work, so with four threads they finish
    // last; the result vector must not care.
    constexpr std::uint64_t kJobs = 48;
    bench::ParallelRunner<std::uint64_t> runner(4);
    for (std::uint64_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(runner.submit([i] { return spin(i, kJobs); }), i);
    const std::vector<std::uint64_t> got = runner.run();
    ASSERT_EQ(got.size(), kJobs);
    for (std::uint64_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(got[i], spin(i, kJobs)) << "job " << i;
}

TEST(BenchRunner, SimulationsMatchAtOneAndFourJobs)
{
    const std::vector<std::string> serial = simulateAll(1);
    const std::vector<std::string> pooled = simulateAll(4);
    ASSERT_EQ(serial.size(), 8u);
    EXPECT_EQ(serial, pooled);
    EXPECT_NE(serial[0], serial[2]); // the jobs really differ
}

TEST(BenchRunner, MoreJobsThanTasks)
{
    bench::ParallelRunner<int> runner(16);
    EXPECT_TRUE(runner.run().empty());
    for (int i = 0; i < 3; ++i)
        runner.submit([i] { return 10 * i; });
    EXPECT_EQ(runner.run(), (std::vector<int>{0, 10, 20}));
}

TEST(BenchRunner, ReusableAfterRun)
{
    bench::ParallelRunner<int> runner(4);
    for (int i = 0; i < 5; ++i)
        runner.submit([i] { return i; });
    EXPECT_EQ(runner.run(), (std::vector<int>{0, 1, 2, 3, 4}));
    // The second wave starts from index 0 and sees none of the first.
    EXPECT_EQ(runner.submit([] { return 7; }), 0u);
    EXPECT_EQ(runner.submit([] { return 8; }), 1u);
    EXPECT_EQ(runner.run(), (std::vector<int>{7, 8}));
}

} // namespace
} // namespace latr
