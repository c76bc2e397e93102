/**
 * @file
 * The four benchmark workloads. One call runs one round: a workload's
 * fixed work (set-up, then the timed run) under each of its policies,
 * each on a fresh default-preset Machine with the invariant checker
 * on. A round is deterministic in everything simulated, so main.cc
 * runs several and compares them.
 */

#ifndef LATRBENCH_WORKLOADS_HH_
#define LATRBENCH_WORKLOADS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hh"

namespace latrbench
{

/** One checked operation: a policy run, or a fuzz script. */
struct Op
{
    std::string label;
    /** Everything simulated the operation produced, hashed. */
    std::uint64_t digest = 0;
    bool ok = true;
    /** First failed check, when !ok. */
    std::string why;
};

/** What one round measured. */
struct Round
{
    /** Host seconds of set-up: inputs, Machine construction, start. */
    double setupS = 0.0;
    /** Host seconds of the fixed simulated work. */
    double runS = 0.0;
    std::vector<Op> ops;
    /** One digest per policy, by policy tag. */
    std::map<std::string, std::uint64_t> digests;
    /**
     * Simulated results and model counters by metric name. They
     * depend only on the seed, so every round of a run must agree.
     */
    std::map<std::string, double> sim;
    /** Sample count and top percentile of a simulated latency. */
    std::map<std::string, std::string> notes;
    /** Host seconds of each policy's run phase, by policy tag. */
    std::map<std::string, double> policyRunS;
};

struct WorkloadOptions
{
    std::uint64_t seed = 1;
    /** fuzz only: break LATR's sweep, so the checks must fail. */
    bool injectSkipLatrSweep = false;
};

const std::vector<std::string> &workloadNames();

/** Run one round of @p workload; @p rec is null when untraced. */
Round runRound(const std::string &workload, const WorkloadOptions &opt,
               SpanRecorder *rec);

/**
 * Mark as failed every op of @p r that does not reproduce @p first,
 * an earlier round of the same seed: its own digest differs, or any
 * simulated metric or policy digest of the round does. Simulated
 * results depend only on the seed, so any difference between rounds,
 * traced or not, is a defect.
 */
void checkReproduces(const Round &first, Round &r);

/**
 * Time the public constructors a workload's set-up pays for, outside
 * any round: Machine (for fuzz, whose machines are built inside
 * runScript), FrameAllocator and LlcCache, recorded as
 * machine.construct, mem.frames_ctor and hw.llc_ctor spans.
 */
void runConstructorProbes(const std::string &workload, SpanRecorder &rec);

} // namespace latrbench

#endif // LATRBENCH_WORKLOADS_HH_
