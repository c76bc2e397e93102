#include "check/fuzzer.hh"

#include <algorithm>

namespace latr
{

std::string
checkScript(const Script &script, const ExecOptions &opt)
{
    DiffResult diff;
    std::vector<RunResult> runs = runDifferential(script, opt, &diff);
    for (const RunResult &run : runs) {
        if (run.stalenessViolations > 0)
            return std::string(policyKindName(run.policy)) +
                   ": staleness oracle: " + run.firstStaleness;
        if (run.invariantViolations > 0)
            return std::string(policyKindName(run.policy)) +
                   ": reuse invariant: " + run.firstInvariant;
    }
    if (!diff.equivalent)
        return "differential: " + diff.divergence;
    return "";
}

std::string
failureCategory(const std::string &reason)
{
    if (reason.empty())
        return "";
    if (reason.find(": staleness oracle: ") != std::string::npos)
        return "staleness";
    if (reason.find(": reuse invariant: ") != std::string::npos)
        return "invariant";
    return "differential";
}

Script
minimizeScript(const Script &script,
               const std::function<bool(const Script &)> &still_fails,
               unsigned max_evals)
{
    Script best = script;
    unsigned evals = 0;
    auto try_script = [&](const Script &candidate) {
        if (evals >= max_evals)
            return false;
        ++evals;
        return still_fails(candidate);
    };

    std::size_t chunk = std::max<std::size_t>(1, best.ops.size() / 2);
    while (evals < max_evals) {
        bool shrunk = false;
        for (std::size_t at = 0;
             at < best.ops.size() && evals < max_evals;) {
            Script candidate = best;
            const std::size_t take =
                std::min(chunk, candidate.ops.size() - at);
            candidate.ops.erase(candidate.ops.begin() + at,
                                candidate.ops.begin() + at + take);
            if (try_script(candidate)) {
                best = std::move(candidate);
                shrunk = true;
                // Re-test the same offset: the next chunk slid in.
            } else {
                at += chunk;
            }
        }
        if (chunk == 1 && !shrunk)
            break;
        if (!shrunk)
            chunk = std::max<std::size_t>(1, chunk / 2);
    }
    return best;
}

FuzzResult
runFuzz(const FuzzOptions &opt)
{
    FuzzResult result;
    const std::string dir =
        opt.outDir.empty() ? std::string(".") : opt.outDir;

    for (unsigned iter = 0; iter < opt.iterations; ++iter) {
        const std::uint64_t seed = opt.baseSeed + iter;
        GenOptions gen = opt.gen;
        if (opt.mixPcid)
            gen.pcid = (iter % 2) == 1;
        Script script = generateScript(seed, gen);
        if (opt.onIteration)
            opt.onIteration(iter, seed);
        ++result.iterations;

        const std::string reason = checkScript(script, opt.exec);
        if (reason.empty())
            continue;

        FuzzFailure failure;
        failure.seed = seed;
        failure.reason = reason;
        failure.originalOps = script.ops.size();

        const std::string stem =
            dir + "/fail_seed" + std::to_string(seed);
        failure.scriptPath = stem + ".script";
        saveScriptFile(failure.scriptPath, script);

        const std::string category = failureCategory(reason);
        Script minimized = minimizeScript(
            script,
            [&](const Script &candidate) {
                return failureCategory(checkScript(
                           candidate, opt.exec)) == category;
            },
            opt.minimizeBudget);
        failure.minimizedOps = minimized.ops.size();
        failure.minScriptPath = stem + ".min.script";
        saveScriptFile(failure.minScriptPath, minimized);

        // Re-run the minimized script with tracing so the dump
        // arrives with a Chrome-trace timeline of the failure.
        ExecOptions traced = opt.exec;
        traced.tracePath = stem + ".trace.json";
        checkScript(minimized, traced);
        failure.tracePath = traced.tracePath;

        result.failures.push_back(std::move(failure));
        if (opt.stopOnFailure)
            break;
    }
    return result;
}

} // namespace latr
