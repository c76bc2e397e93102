// Tests for the LATR policy — the paper's mechanism (sections 3-4):
// lazy shootdown via per-core states, sweeps at ticks/switches, lazy
// reclamation, fallback IPIs, lazy migration unmap, and the race
// semantics of section 4.4.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "test_helpers.hh"
#include "tlbcoh/latr_policy.hh"
#include "trace/trace.hh"

namespace latr
{
namespace
{

struct LatrFixture : public ::testing::Test
{
    LatrFixture()
        : machine(test::tinyConfig(), PolicyKind::Latr),
          kernel(machine.kernel()),
          policy(static_cast<LatrPolicy *>(&machine.policy()))
    {
        process = kernel.createProcess("app");
        t0 = kernel.spawnTask(process, 0);
        t1 = kernel.spawnTask(process, 1);
        t4 = kernel.spawnTask(process, 4); // other socket
        // Start ticks.
        machine.run(kUsec);
    }

    /** mmap + touch on a set of tasks. */
    Addr
    sharedPage(std::initializer_list<Task *> tasks)
    {
        SyscallResult m = kernel.mmap(t0, kPageSize,
                                      kProtRead | kProtWrite);
        for (Task *t : tasks)
            test::touchRange(kernel, t, m.addr, kPageSize);
        return m.addr;
    }

    Machine machine;
    Kernel &kernel;
    LatrPolicy *policy;
    Process *process = nullptr;
    Task *t0 = nullptr;
    Task *t1 = nullptr;
    Task *t4 = nullptr;
};

TEST_F(LatrFixture, MunmapSendsNoIpisAndReturnsFast)
{
    Addr addr = sharedPage({t0, t1, t4});
    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult u = kernel.munmap(t0, addr, kPageSize);
    ASSERT_TRUE(u.ok);
    EXPECT_EQ(machine.ipi().ipisSent(), ipis); // zero IPIs
    // Shootdown contribution is just the state save (~132 ns).
    EXPECT_LE(u.shootdown, 200u);
    EXPECT_EQ(policy->activeStates(), 1u);
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"), 1u);
}

TEST_F(LatrFixture, RemoteEntriesDieAtNextTick)
{
    Addr addr = sharedPage({t0, t1, t4});
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_TRUE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    EXPECT_TRUE(machine.scheduler().tlbOf(4).probe(pageOf(addr), 0));
    // One full tick interval later, every core has swept.
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    EXPECT_FALSE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    EXPECT_FALSE(machine.scheduler().tlbOf(4).probe(pageOf(addr), 0));
    EXPECT_EQ(policy->activeStates(), 0u); // all bits cleared
    EXPECT_EQ(policy->pendingReclaim(), 1u);
}

TEST_F(LatrFixture, ReclamationWaitsTwoTickPeriods)
{
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    machine.run(1 * kMsec); // one period: not yet
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    machine.run(2 * kMsec); // past 2 ms since save
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(policy->pendingReclaim(), 0u);
    EXPECT_GT(machine.stats().counterValue("latr.reclaimed_pages"), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, VirtualRangeHeldBackUntilReclaim)
{
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_TRUE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    // An immediate mmap must not reuse the held-back range.
    SyscallResult m2 = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    EXPECT_NE(m2.addr, addr);
    machine.run(4 * kMsec);
    EXPECT_FALSE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    // Now the first-fit allocator may hand it out again.
    SyscallResult m3 = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    EXPECT_EQ(m3.addr, addr);
}

TEST_F(LatrFixture, StaleReadsServeOldPageThenFault)
{
    // Section 4.4: an application bug touching freed memory reads
    // the old page until the sweep, then segfaults.
    Addr addr = sharedPage({t0, t1});
    const Pfn old_pfn = kernel.touch(t1, addr, false).pfn;
    kernel.munmap(t0, addr, kPageSize);
    TouchResult before = kernel.touch(t1, addr, false);
    EXPECT_EQ(before.kind, TouchKind::TlbHit);
    EXPECT_EQ(before.pfn, old_pfn); // still the old frame
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    TouchResult after = kernel.touch(t1, addr, false);
    EXPECT_EQ(after.kind, TouchKind::SegFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, StaleWritesNeverReachReusedFrames)
{
    // The invariant in action: the stale-writable window never
    // overlaps the frame's next life.
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    kernel.touch(t1, addr, true); // stale write, old frame, allowed
    machine.run(6 * kMsec);       // reclaim
    // New allocation reuses the frame; checker saw no overlap.
    SyscallResult m2 = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m2.addr, kPageSize);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, ContextSwitchAlsoSweeps)
{
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    ASSERT_EQ(policy->activeStates(), 1u);
    // A context switch on core 1 sweeps without waiting for a tick.
    machine.scheduler().contextSwitch(1);
    EXPECT_FALSE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    const std::uint64_t sweeps =
        machine.stats().counterValue("latr.sweeps");
    EXPECT_GT(sweeps, 0u);
}

TEST_F(LatrFixture, RingOverflowFallsBackToIpis)
{
    // Saturate core 0's ring within one reclamation window.
    const unsigned ring = machine.config().latrStatesPerCore;
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < ring + 8; ++i) {
        Addr a = sharedPage({t0, t1});
        addrs.push_back(a);
        kernel.munmap(t0, a, kPageSize);
    }
    EXPECT_GT(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    EXPECT_GT(machine.ipi().ipisSent(), 0u);
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, ExactRingBoundaryFallsBackOnNextFree)
{
    // Fill exactly latrStatesPerCore entries without letting any
    // time pass (no sweep, no reclaim): every save must land in a
    // slot, and only the ring+1'th free crosses into the fallback
    // path — one counter bump, IPIs on the wire, and the
    // latr.ring_full_fallback trace instant.
    machine.trace().setEnabled(true);
    const unsigned ring = machine.config().latrStatesPerCore;
    for (unsigned i = 0; i < ring; ++i) {
        Addr a = sharedPage({t0, t1});
        kernel.munmap(t0, a, kPageSize);
    }
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"),
              ring);
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    for (const TraceRecord &rec : machine.trace().snapshot())
        EXPECT_STRNE(rec.name, "latr.ring_full_fallback");

    const std::uint64_t ipis = machine.ipi().ipisSent();
    Addr a = sharedPage({t0, t1});
    kernel.munmap(t0, a, kPageSize);
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"),
              ring);
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 1u);
    EXPECT_GT(machine.ipi().ipisSent(), ipis);
    bool saw = false;
    for (const TraceRecord &rec : machine.trace().snapshot())
        if (rec.kind == TraceKind::Instant &&
            std::strcmp(rec.name, "latr.ring_full_fallback") == 0)
            saw = true;
    EXPECT_TRUE(saw);

    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, AllocCursorWrapsIntoReclaimedMidRingSlots)
{
    // Pin the slot-reuse order: after the cursor has traversed the
    // whole ring and a reclaim pass has retired the first wave
    // mid-ring, the next saves wrap around and fill slots 0, 1, 2
    // in cursor order — not the still-pending upper half.
    const unsigned ring = machine.config().latrStatesPerCore;
    ASSERT_EQ(ring % 2, 0u);
    for (unsigned i = 0; i < ring / 2; ++i) {
        Addr a = sharedPage({t0, t1}); // wave A: slots 0..ring/2-1
        kernel.munmap(t0, a, kPageSize);
    }
    machine.run(1 * kMsec);
    for (unsigned i = 0; i < ring / 2; ++i) {
        Addr a = sharedPage({t0, t1}); // wave B: the upper half,
        kernel.munmap(t0, a, kPageSize); // cursor wraps to 0
    }
    // Past wave A's reclaim deadline (save + 2 ms), short of wave
    // B's: the lower half is Empty again, the upper half is not.
    machine.run(1400 * kUsec);
    const auto &r0 = policy->ringOf(0);
    for (unsigned i = 0; i < ring / 2; ++i)
        EXPECT_EQ(r0[i].phase, LatrStatePhase::Empty) << "slot " << i;
    unsigned upperLive = 0;
    for (unsigned i = ring / 2; i < ring; ++i)
        if (r0[i].phase != LatrStatePhase::Empty)
            ++upperLive;
    EXPECT_GT(upperLive, 0u);

    Addr fresh[3];
    for (int i = 0; i < 3; ++i) {
        fresh[i] = sharedPage({t0, t1});
        kernel.munmap(t0, fresh[i], kPageSize);
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_NE(r0[i].phase, LatrStatePhase::Empty) << "slot " << i;
        EXPECT_EQ(r0[i].startVpn, pageOf(fresh[i])) << "slot " << i;
        EXPECT_EQ(r0[i].kind, LatrStateKind::Free);
    }
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, MadviseFreeIsLazyAndRefaultsZeroFilled)
{
    // The lazycache discard path: MADV_FREE defers like munmap but
    // keeps the VMA, so a later touch is a fresh minor fault — the
    // free-then-reuse cycle in one page.
    Addr addr = sharedPage({t0, t1});
    SyscallResult a = kernel.madviseFree(t0, addr, kPageSize);
    ASSERT_TRUE(a.ok);
    EXPECT_LE(a.shootdown, 200u);
    EXPECT_EQ(policy->activeStates(), 1u);
    EXPECT_EQ(machine.stats().counterValue("sys.madvise_free"), 1u);
    EXPECT_FALSE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(kernel.touch(t0, addr, true).kind,
              TouchKind::MinorFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, SlotsRecycleAfterReclaim)
{
    const unsigned ring = machine.config().latrStatesPerCore;
    // Fill half the ring, reclaim, fill again: no fallback ever.
    for (int round = 0; round < 4; ++round) {
        for (unsigned i = 0; i < ring / 2; ++i) {
            Addr a = sharedPage({t0, t1});
            kernel.munmap(t0, a, kPageSize);
        }
        machine.run(6 * kMsec);
    }
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
}

TEST_F(LatrFixture, SyncRequestedOverrideUsesIpis)
{
    // Paper section 7: a per-call opt-out for use-after-free
    // detectors and friends.
    Addr addr = sharedPage({t0, t1});
    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult u = kernel.munmap(t0, addr, kPageSize, true);
    ASSERT_TRUE(u.ok);
    EXPECT_GT(machine.ipi().ipisSent(), ipis);
    machine.run(100 * kUsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
}

TEST_F(LatrFixture, MadviseIsLazyWithoutVaHoldback)
{
    Addr addr = sharedPage({t0, t1});
    SyscallResult a = kernel.madvise(t0, addr, kPageSize);
    ASSERT_TRUE(a.ok);
    EXPECT_LE(a.shootdown, 200u);
    EXPECT_FALSE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    // VMA survived: refault allowed.
    EXPECT_EQ(kernel.touch(t0, addr, true).kind,
              TouchKind::MinorFault);
}

TEST_F(LatrFixture, MprotectStaysSynchronous)
{
    // Table 1: permission changes cannot be lazy, even under LATR.
    Addr addr = sharedPage({t0, t1, t4});
    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult pr = kernel.mprotect(t0, addr, kPageSize, kProtRead);
    ASSERT_TRUE(pr.ok);
    EXPECT_GT(machine.ipi().ipisSent(), ipis);
    EXPECT_GT(pr.shootdown, kUsec);
}

TEST_F(LatrFixture, NumaSampleDefersPteChange)
{
    Addr addr = sharedPage({t0, t1, t4});
    Duration d = kernel.numaSample(t0, pageOf(addr));
    EXPECT_LE(d, 200u); // just the state save
    // PTE untouched until the first sweep.
    EXPECT_FALSE(
        process->mm().pageTable().find(pageOf(addr))->protNone());
    // Accesses before the sweep proceed uninterrupted.
    EXPECT_EQ(kernel.touch(t1, addr, false).kind, TouchKind::TlbHit);
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    // First sweeping core cleared the PTE; all TLB entries are gone.
    EXPECT_TRUE(
        process->mm().pageTable().find(pageOf(addr))->protNone());
    EXPECT_FALSE(machine.scheduler().tlbOf(0).probe(pageOf(addr), 0));
    EXPECT_FALSE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    EXPECT_FALSE(machine.scheduler().tlbOf(4).probe(pageOf(addr), 0));
}

TEST_F(LatrFixture, NumaSampleGatesTheSampledPageFault)
{
    Addr addr = sharedPage({t0, t1, t4});
    Addr other = sharedPage({t0, t1});
    kernel.numaSample(t0, pageOf(addr));
    // The sampled page's fault is gated until every core has swept
    // (at most one tick interval + slack)...
    const Tick ready =
        machine.policy().numaSampleReadyAt(&process->mm(),
                                           pageOf(addr));
    EXPECT_GE(ready,
              machine.now() + machine.config().cost.tickInterval);
    // ...but unrelated pages are not gated at all.
    EXPECT_EQ(machine.policy().numaSampleReadyAt(&process->mm(),
                                                 pageOf(other)),
              0u);
    // Once all cores swept, the gate drops.
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    EXPECT_EQ(machine.policy().numaSampleReadyAt(&process->mm(),
                                                 pageOf(addr)),
              0u);
}

TEST_F(LatrFixture, LazyBytesAccounting)
{
    EXPECT_EQ(policy->lazyBytes(), 0u);
    Addr a = sharedPage({t0, t1});
    Addr b = sharedPage({t0, t1});
    kernel.munmap(t0, a, kPageSize);
    kernel.munmap(t0, b, kPageSize);
    EXPECT_EQ(policy->lazyBytes(), 2 * kPageSize);
    machine.run(6 * kMsec);
    EXPECT_EQ(policy->lazyBytes(), 0u);
}

TEST_F(LatrFixture, RingIntrospection)
{
    Addr a = sharedPage({t0, t1});
    kernel.munmap(t0, a, kPageSize);
    const auto &ring = policy->ringOf(0);
    EXPECT_EQ(ring.size(), machine.config().latrStatesPerCore);
    int active = 0;
    for (const LatrState &s : ring)
        if (s.phase == LatrStatePhase::Active) {
            ++active;
            EXPECT_EQ(s.kind, LatrStateKind::Free);
            EXPECT_EQ(s.startVpn, pageOf(a));
            EXPECT_EQ(s.owner, 0u);
            EXPECT_TRUE(s.cpuMask.test(1));
            EXPECT_FALSE(s.cpuMask.test(0)); // initiator excluded
        }
    EXPECT_EQ(active, 1);
}

TEST_F(LatrFixture, NoRemoteResidencySkipsStraightToReclaim)
{
    // Only core 0 ever touched the page: the state deactivates at
    // save time (empty CPU mask) and just ages.
    Addr addr = sharedPage({t0});
    // Scrub residency of the other cores for this mm by idling them.
    kernel.exitTask(t1);
    kernel.exitTask(t4);
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_EQ(policy->activeStates(), 0u);
    EXPECT_EQ(policy->pendingReclaim(), 1u);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
}

TEST_F(LatrFixture, CapabilitiesMatchTable2)
{
    PolicyCapabilities caps = machine.policy().capabilities();
    EXPECT_TRUE(caps.asynchronous);
    EXPECT_TRUE(caps.nonIpiBased);
    EXPECT_TRUE(caps.noRemoteCoreInvolvement);
    EXPECT_TRUE(caps.noHardwareChanges);
    EXPECT_TRUE(caps.lazyFreeCapable);
    EXPECT_TRUE(caps.lazyMigrationCapable);
}

TEST_F(LatrFixture, LargeLazyUnmapFullFlushesAtSweep)
{
    const std::uint64_t pages = 64; // above threshold
    SyscallResult m = kernel.mmap(t0, pages * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, pages * kPageSize);
    test::touchRange(kernel, t1, m.addr, pages * kPageSize);
    const std::uint64_t flushes =
        machine.scheduler().tlbOf(1).flushes();
    kernel.munmap(t0, m.addr, pages * kPageSize);
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    EXPECT_GT(machine.scheduler().tlbOf(1).flushes(), flushes);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST(LatrPcid, SweepInvalidatesByPcidAcrossProcesses)
{
    MachineConfig cfg = test::tinyConfig();
    cfg.pcidEnabled = true;
    Machine machine(cfg, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Process *a = kernel.createProcess("a");
    Process *b = kernel.createProcess("b");
    Task *ta = kernel.spawnTask(a, 0);
    Task *ta1 = kernel.spawnTask(a, 1);
    Task *tb1 = kernel.spawnTask(b, 1);
    machine.run(kUsec);

    // Both processes cache translations on core 1.
    SyscallResult ma = kernel.mmap(ta, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, ta1, ma.addr, kPageSize);
    SyscallResult mb = kernel.mmap(tb1, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, tb1, mb.addr, kPageSize);

    kernel.munmap(ta, ma.addr, kPageSize);
    machine.run(cfg.cost.tickInterval + 10 * kUsec);
    // a's entry swept by PCID; b's entry (same VPN range possible)
    // survives.
    EXPECT_FALSE(
        machine.scheduler().tlbOf(1).probe(pageOf(ma.addr),
                                           a->mm().pcid()));
    EXPECT_TRUE(
        machine.scheduler().tlbOf(1).probe(pageOf(mb.addr),
                                           b->mm().pcid()));
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

/**
 * The invariant sweep elision rests on: every active state's cpuMask
 * stays inside pendingSweepers(), so a core whose bit is clear has
 * nothing to sweep. Checked every 50 us of a 120-core run where six
 * publishers, each resident on cores on both sides of the 64-core
 * word seam, issue AutoNUMA samples and munmaps, with PCIDs on and
 * off.
 */
TEST(LatrElision, ActiveMasksStayInsidePendingSweepers)
{
    constexpr unsigned kPublishers = 6;
    for (bool pcid : {true, false}) {
        MachineConfig config = MachineConfig::largeNuma8S120C();
        config.pcidEnabled = pcid;
        Machine machine(config, PolicyKind::Latr);
        Kernel &kernel = machine.kernel();
        const auto *latr = static_cast<LatrPolicy *>(&machine.policy());
        const unsigned cores = machine.topo().totalCores();

        // A filler task on every core keeps every core ticking; the
        // publishers' threads oversubscribe some, adding
        // context-switch sweeps.
        Process *fill = kernel.createProcess("fill");
        for (CoreId c = 0; c < cores; ++c)
            kernel.spawnTask(fill, c);
        std::vector<std::vector<Task *>> threads(kPublishers);
        std::vector<Addr> region(kPublishers);
        for (unsigned p = 0; p < kPublishers; ++p) {
            Process *proc = kernel.createProcess(
                std::string("p").append(std::to_string(p)));
            for (CoreId off : {0u, 5u, 11u, 17u})
                threads[p].push_back(
                    kernel.spawnTask(proc, (p * 19 + off) % cores));
            SyscallResult m = kernel.mmap(threads[p][0], 16 * kPageSize,
                                          kProtRead | kProtWrite);
            ASSERT_TRUE(m.ok);
            region[p] = m.addr;
            for (Task *t : threads[p])
                test::touchRange(kernel, t, m.addr, 16 * kPageSize);
        }

        std::uint64_t checked = 0;
        auto check = [&] {
            const CpuMask &pending = latr->pendingSweepers();
            for (CoreId c = 0; c < cores; ++c) {
                for (const LatrState &state : latr->ringOf(c)) {
                    if (state.phase != LatrStatePhase::Active)
                        continue;
                    CpuMask covered = state.cpuMask;
                    covered.andWith(pending);
                    EXPECT_TRUE(covered == state.cpuMask)
                        << "pcid " << pcid << " ring " << c << " at "
                        << machine.queue().now();
                    ++checked;
                }
            }
        };

        for (unsigned iter = 0; iter < 30; ++iter) {
            for (unsigned p = 0; p < kPublishers; ++p) {
                const std::vector<Task *> &ts = threads[p];
                kernel.numaSample(ts[iter % ts.size()],
                                  region[p] / kPageSize + iter % 16);
                SyscallResult m = kernel.mmap(ts[0], 2 * kPageSize,
                                              kProtRead | kProtWrite);
                ASSERT_TRUE(m.ok);
                test::touchRange(kernel, ts[(iter + 1) % ts.size()],
                                 m.addr, 2 * kPageSize);
                test::touchRange(kernel, ts[(iter + 2) % ts.size()],
                                 m.addr, kPageSize);
                kernel.munmap(ts[iter % ts.size()], m.addr,
                              2 * kPageSize);
            }
            check();
            for (unsigned step = 0; step < 4; ++step) {
                machine.run(50 * kUsec);
                check();
            }
        }
        EXPECT_GT(checked, 1000u) << "pcid " << pcid;
        EXPECT_GT(machine.stats().counterValue("latr.sweep_matches"), 0u);
    }
}

/**
 * Sweep elision is invisible: an elided sweep (the core's
 * pendingSweepers() bit is clear) and a full scan that matches
 * nothing each charge exactly latrSweepFixed of stolen time, count
 * one latr.sweeps and no latr.sweep_matches, and read one LLC line.
 */
TEST(LatrElision, ElidedSweepCostsExactlyAMatchlessScan)
{
    MachineConfig config = test::tinyConfig();
    // Time-only reclamation with a delay far under one tick drops a
    // state while its cores' bits are still pending: the next sweep
    // of such a core scans every active state and matches nothing.
    config.latrTimeOnlyReclaim = true;
    config.cost.latrReclaimDelay = 10 * kUsec;
    Machine machine(config, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    auto *latr = static_cast<LatrPolicy *>(&machine.policy());
    Process *proc = kernel.createProcess("p");
    Task *owner = kernel.spawnTask(proc, 0);
    Task *sharer = kernel.spawnTask(proc, 5);
    kernel.spawnTask(kernel.createProcess("other"), 1);
    machine.run(kUsec);

    SyscallResult m =
        kernel.mmap(owner, kPageSize, kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    test::touchRange(kernel, owner, m.addr, kPageSize);
    test::touchRange(kernel, sharer, m.addr, kPageSize);
    kernel.munmap(owner, m.addr, kPageSize);
    ASSERT_EQ(latr->activeStates(), 1u);
    // Reclaimed by age alone, well before core 5's first tick.
    machine.run(20 * kUsec);
    ASSERT_EQ(latr->activeStates(), 0u);
    ASSERT_TRUE(latr->pendingSweepers().test(5));
    ASSERT_FALSE(latr->pendingSweepers().test(1));

    struct SweepCost
    {
        Duration stolen;
        std::uint64_t sweeps, matches, llcLines;
    };
    auto sweepOnce = [&](CoreId core) {
        LlcCache &llc = machine.llcOf(machine.topo().nodeOf(core));
        auto lines = [&] {
            return llc.hits(CacheAccessOrigin::LatrSweep) +
                   llc.misses(CacheAccessOrigin::LatrSweep);
        };
        auto counter = [&](const char *name) {
            return machine.stats().counterValue(name);
        };
        machine.scheduler().takeStolen(core);
        const SweepCost before{0, counter("latr.sweeps"),
                               counter("latr.sweep_matches"), lines()};
        latr->onSchedulerTick(core, machine.queue().now());
        return SweepCost{machine.scheduler().takeStolen(core),
                         counter("latr.sweeps") - before.sweeps,
                         counter("latr.sweep_matches") - before.matches,
                         lines() - before.llcLines};
    };

    for (CoreId core : {1u, 5u}) {
        const SweepCost cost = sweepOnce(core);
        EXPECT_EQ(cost.stolen, config.cost.latrSweepFixed)
            << "core " << core;
        EXPECT_EQ(cost.sweeps, 1u) << "core " << core;
        EXPECT_EQ(cost.matches, 0u) << "core " << core;
        EXPECT_EQ(cost.llcLines, 1u) << "core " << core;
    }
    // The full scan cleared core 5's stale bit.
    EXPECT_FALSE(latr->pendingSweepers().test(5));
}

} // namespace
} // namespace latr
