// Kernel syscall-layer tests, run against every policy where the
// semantics must be identical, plus the syscall cost formulas, pinned
// on the Linux policy.

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace latr
{
namespace
{

class KernelAllPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    KernelAllPolicies()
        : machine(test::tinyConfig(), GetParam()),
          kernel(machine.kernel())
    {
        process = kernel.createProcess("app");
        task = kernel.spawnTask(process, 0);
        peer = kernel.spawnTask(process, 1);
    }

    /** Settle asynchronous work (ticks, reclamation, IPIs). */
    void
    settle(Duration d = 8 * kMsec)
    {
        machine.run(d);
    }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *task = nullptr;
    Task *peer = nullptr;
};

TEST_P(KernelAllPolicies, MmapTouchMunmapLifecycle)
{
    SyscallResult m = kernel.mmap(task, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    EXPECT_GT(m.latency, 0u);
    test::touchRange(kernel, task, m.addr, 4 * kPageSize);
    EXPECT_EQ(machine.frames().allocatedFrames(), 4u);

    SyscallResult u = kernel.munmap(task, m.addr, 4 * kPageSize);
    ASSERT_TRUE(u.ok);
    settle();
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, MunmapOfUnmappedRangeSucceedsCheaply)
{
    // Valid but unmapped range: succeeds with nothing to do (as in
    // Linux). LATR still writes a state (it must conservatively park
    // the virtual range), so allow up to one state save.
    SyscallResult u = kernel.munmap(task, 0x7000'0000ULL, kPageSize);
    EXPECT_TRUE(u.ok);
    EXPECT_LE(u.shootdown, 200u);
    SyscallResult m = kernel.mmap(task, kPageSize, kProtRead);
    SyscallResult u2 = kernel.munmap(task, m.addr, kPageSize);
    EXPECT_TRUE(u2.ok);
}

TEST_P(KernelAllPolicies, MadviseDropsPagesKeepsVma)
{
    SyscallResult m = kernel.mmap(task, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 4 * kPageSize);
    SyscallResult a = kernel.madvise(task, m.addr, 2 * kPageSize);
    ASSERT_TRUE(a.ok);
    settle();
    EXPECT_EQ(machine.frames().allocatedFrames(), 2u);
    // Refault works (VMA kept).
    TouchResult t = kernel.touch(task, m.addr, true);
    EXPECT_EQ(t.kind, TouchKind::MinorFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, MprotectRemovesWritePermissionEverywhere)
{
    SyscallResult m = kernel.mmap(task, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 2 * kPageSize);
    test::touchRange(kernel, peer, m.addr, 2 * kPageSize);
    SyscallResult pr =
        kernel.mprotect(task, m.addr, 2 * kPageSize, kProtRead);
    ASSERT_TRUE(pr.ok);
    settle();
    // Writes now fault on both cores (no stale writable entries).
    EXPECT_EQ(kernel.touch(task, m.addr, true).kind,
              TouchKind::SegFault);
    EXPECT_EQ(kernel.touch(peer, m.addr, true).kind,
              TouchKind::SegFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, MremapMovesMappingPreservingFrames)
{
    SyscallResult m = kernel.mmap(task, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 2 * kPageSize);
    const Pfn f0 =
        process->mm().pageTable().find(pageOf(m.addr))->pfn;
    SyscallResult r =
        kernel.mremap(task, m.addr, 2 * kPageSize, 2 * kPageSize);
    ASSERT_TRUE(r.ok);
    EXPECT_NE(r.addr, m.addr);
    settle();
    // Old range gone, new range maps the same frame.
    EXPECT_EQ(kernel.touch(task, m.addr, false).kind,
              TouchKind::SegFault);
    TouchResult t = kernel.touch(task, r.addr, false);
    EXPECT_EQ(t.pfn, f0);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, CowMarkAndBreak)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, kPageSize);
    const Pfn orig =
        process->mm().pageTable().find(pageOf(m.addr))->pfn;
    // Simulate a second owner of the frame (as fork would create).
    machine.frames().get(orig);
    SyscallResult c = kernel.markCow(task, m.addr, kPageSize);
    ASSERT_TRUE(c.ok);
    settle();

    TouchResult w = kernel.touch(task, m.addr, true);
    EXPECT_EQ(w.kind, TouchKind::CowBreak);
    EXPECT_NE(w.pfn, orig);
    EXPECT_EQ(machine.frames().refcount(orig), 1u); // our ref dropped
    settle();
    EXPECT_EQ(machine.checker()->violations(), 0u);
    machine.frames().put(orig); // release the fake second owner
}

TEST_P(KernelAllPolicies, CowBreakSoleOwnerUpgradesInPlace)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, kPageSize);
    const Pfn orig =
        process->mm().pageTable().find(pageOf(m.addr))->pfn;
    kernel.markCow(task, m.addr, kPageSize);
    settle();
    TouchResult w = kernel.touch(task, m.addr, true);
    EXPECT_EQ(w.kind, TouchKind::CowBreak);
    EXPECT_EQ(w.pfn, orig); // no copy needed
}

TEST_P(KernelAllPolicies, ExitProcessReleasesEverything)
{
    SyscallResult m = kernel.mmap(task, 8 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 8 * kPageSize);
    test::touchRange(kernel, peer, m.addr, 8 * kPageSize);
    settle();
    kernel.exitProcess(process);
    settle();
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, TouchStatsAreCounted)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    kernel.touch(task, m.addr, true);
    kernel.touch(task, 0x10, false); // unmapped low address
    EXPECT_EQ(machine.stats().counterValue("vm.minor_faults"), 1u);
    EXPECT_EQ(machine.stats().counterValue("vm.segfaults"), 1u);
}

TEST_P(KernelAllPolicies, MunmapLatencyRecorded)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, kPageSize);
    kernel.munmap(task, m.addr, kPageSize);
    EXPECT_EQ(
        machine.stats().distribution("munmap.latency_ns").count(), 1u);
}

TEST_P(KernelAllPolicies, FreesSharingAStartAddressReleaseAllHeldVa)
{
    // The second munmap re-frees the first one's pages' VA: lazy
    // policies park two ranges with one start address, and both must
    // come back once coherence is reached.
    SyscallResult m = kernel.mmap(task, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    test::touchRange(kernel, task, m.addr, 4 * kPageSize);
    test::touchRange(kernel, peer, m.addr, 4 * kPageSize);
    ASSERT_TRUE(kernel.munmap(task, m.addr, 2 * kPageSize).ok);
    ASSERT_TRUE(kernel.munmap(task, m.addr, 4 * kPageSize).ok);
    settle(50 * kMsec);
    EXPECT_EQ(process->mm().heldBackBytes(), 0u);
    EXPECT_FALSE(
        process->mm().rangeHeldBack(m.addr, m.addr + 4 * kPageSize));
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(kernel.mmap(task, 4 * kPageSize, kProtRead).addr, m.addr);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, KernelAllPolicies,
    ::testing::Values(PolicyKind::LinuxSync, PolicyKind::Latr,
                      PolicyKind::Abis, PolicyKind::Barrelfish,
                      PolicyKind::Predictive),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

TEST(Kernel, SyscallChargesMatchCostModel)
{
    // On an idle Linux machine each call's latency is the exact sum
    // of the cost-model terms it charges plus its policy time, and
    // with one remote resident core that policy time is one IPI
    // round trip. Every call starts with mmap_sem free.
    Machine machine(test::tinyConfig(), PolicyKind::LinuxSync);
    Kernel &kernel = machine.kernel();
    Process *process = kernel.createProcess("app");
    Task *task = kernel.spawnTask(process, 0);
    Task *peer = kernel.spawnTask(process, 1);
    AddressSpace &mm = process->mm();
    const CostModel &c = kernel.cost();
    const unsigned hops = machine.topo().hops(0, 1);
    auto ipi = [&](std::uint64_t npages) {
        return c.ipiSendCost(hops) + c.ipiDeliveryCost(hops) +
               c.ipiHandlerFixed + c.localInvalidateCost(npages) +
               c.cachelineCost(hops);
    };
    auto idle = [&]() {
        machine.run(kMsec);
        ASSERT_LE(mm.mmapSem().writerNextFree(), machine.now());
        ASSERT_EQ(mm.residencyMask().count(), 2u);
    };
    auto touch_both = [&](Addr addr, std::uint64_t len) {
        test::touchRange(kernel, task, addr, len);
        test::touchRange(kernel, peer, addr, len);
    };

    // mmap and mmapHuge: entry plus the write-held VMA insert.
    idle();
    const SyscallResult m =
        kernel.mmap(task, 8 * kPageSize, kProtRead | kProtWrite);
    EXPECT_EQ(m.latency, c.syscallFixed + c.mmapFixed);
    EXPECT_EQ(m.shootdown, 0u);
    idle();
    const SyscallResult h =
        kernel.mmapHuge(task, kHugePageSize, kProtRead | kProtWrite);
    EXPECT_EQ(h.latency, c.syscallFixed + c.mmapFixed);
    EXPECT_EQ(h.shootdown, 0u);

    // Four of the eight pages present: the sync ops charge their VMA
    // term per spanned page (mprotect, mremap) or not at all
    // (markCow), and their PTE term per present page.
    touch_both(m.addr, 4 * kPageSize);
    idle();
    const SyscallResult pr = kernel.mprotect(task, m.addr, 8 * kPageSize,
                                             kProtRead | kProtWrite);
    EXPECT_EQ(pr.shootdown, ipi(4));
    EXPECT_EQ(pr.latency, c.syscallFixed + c.vmaFixed + c.vmaPerPage * 8 +
                              c.pteClearPerPage * 4 +
                              c.localInvalidateCost(4) + ipi(4));
    idle();
    const SyscallResult cow = kernel.markCow(task, m.addr, 8 * kPageSize);
    EXPECT_EQ(cow.shootdown, ipi(4));
    EXPECT_EQ(cow.latency, c.syscallFixed + c.vmaFixed +
                               c.pteClearPerPage * 4 +
                               c.localInvalidateCost(4) + ipi(4));
    idle();
    const SyscallResult r =
        kernel.mremap(task, m.addr, 8 * kPageSize, 8 * kPageSize);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.shootdown, ipi(4));
    EXPECT_EQ(r.latency, c.syscallFixed + c.vmaFixed + c.vmaPerPage * 8 +
                             c.pteMapPerPage * 4 +
                             c.localInvalidateCost(4) + ipi(4));

    // madvise and MADV_FREE hold mmap_sem for read, not extended by
    // the shootdown: the lock frees when the policy's work begins.
    idle();
    Tick at = machine.now();
    const SyscallResult a = kernel.madvise(task, r.addr, 2 * kPageSize);
    EXPECT_EQ(a.shootdown, ipi(2));
    EXPECT_EQ(a.latency, c.syscallFixed + c.vmaFixed +
                             c.vmaPerPage * 2 + c.pteClearPerPage * 2 +
                             c.localInvalidateCost(2) + ipi(2));
    EXPECT_EQ(mm.mmapSem().writerNextFree(), at + a.latency - a.shootdown);
    idle();
    const SyscallResult f =
        kernel.madviseFree(task, r.addr + 2 * kPageSize, 2 * kPageSize);
    EXPECT_EQ(f.shootdown, ipi(2));
    EXPECT_EQ(f.latency, a.latency);

    // munmap holds it for write across the shootdown, and charges a
    // VMA term per resident core; a huge mapping clears one PMD
    // entry but invalidates all 512 pages.
    touch_both(r.addr, 4 * kPageSize);
    idle();
    at = machine.now();
    const SyscallResult u = kernel.munmap(task, r.addr, 8 * kPageSize);
    EXPECT_EQ(u.shootdown, ipi(4));
    EXPECT_EQ(u.latency, c.syscallFixed + c.vmaFixed + c.vmaPerPage * 4 +
                             c.pteClearPerPage * 4 +
                             c.vmaPerResidentCore * 2 +
                             c.localInvalidateCost(4) + ipi(4));
    EXPECT_EQ(mm.mmapSem().writerNextFree(), at + u.latency);
    touch_both(h.addr, kPageSize);
    idle();
    const SyscallResult hu = kernel.munmap(task, h.addr, kHugePageSize);
    EXPECT_EQ(hu.shootdown, ipi(kHugePageSpan));
    EXPECT_EQ(hu.latency, c.syscallFixed + c.vmaFixed + c.vmaPerPage +
                              c.pteClearPerPage +
                              c.vmaPerResidentCore * 2 +
                              c.localInvalidateCost(kHugePageSpan) +
                              ipi(kHugePageSpan));

    // An empty range is rejected at the cost of the syscall entry.
    const SyscallResult bad = kernel.munmap(task, 0, 0);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.latency, c.syscallFixed);
}

} // namespace
} // namespace latr
