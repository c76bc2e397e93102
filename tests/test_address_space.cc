// Unit tests for AddressSpace: VMAs, mmap placement, unmap paths,
// holdback, and sharer tracking.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "vm/address_space.hh"

namespace latr
{
namespace
{

struct AddressSpaceFixture : public ::testing::Test
{
    AddressSpaceFixture() : frames(2, 1024), mm(1, 0, frames) {}

    /** Map + fault helper: demand-map every page with real frames. */
    void
    populate(Addr base, std::uint64_t pages)
    {
        for (std::uint64_t p = 0; p < pages; ++p) {
            Pfn f = frames.alloc(0);
            ASSERT_NE(f, kPfnInvalid);
            mm.pageTable().map(pageOf(base) + p, f,
                               kPteWrite | kPteAccessed);
        }
    }

    FrameAllocator frames;
    AddressSpace mm;
};

TEST_F(AddressSpaceFixture, MmapReturnsPageAlignedDistinctRegions)
{
    Addr a = mm.mmapRegion(3 * kPageSize, kProtRead | kProtWrite);
    Addr b = mm.mmapRegion(kPageSize, kProtRead);
    ASSERT_NE(a, kAddrInvalid);
    ASSERT_NE(b, kAddrInvalid);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(mm.vmaCount(), 2u);
    EXPECT_TRUE(b >= a + 3 * kPageSize || a >= b + kPageSize);
}

TEST_F(AddressSpaceFixture, MmapRoundsLengthUp)
{
    Addr a = mm.mmapRegion(100, kProtRead);
    const Vma *vma = mm.findVma(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->end - vma->start, kPageSize);
}

TEST_F(AddressSpaceFixture, MmapZeroLengthFails)
{
    EXPECT_EQ(mm.mmapRegion(0, kProtRead), kAddrInvalid);
}

TEST_F(AddressSpaceFixture, FindVmaBoundaries)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    EXPECT_NE(mm.findVma(a), nullptr);
    EXPECT_NE(mm.findVma(a + 2 * kPageSize - 1), nullptr);
    EXPECT_EQ(mm.findVma(a + 2 * kPageSize), nullptr);
}

TEST_F(AddressSpaceFixture, MunmapWholeRegionCollectsPages)
{
    Addr a = mm.mmapRegion(4 * kPageSize, kProtRead | kProtWrite);
    populate(a, 4);
    UnmapResult r = mm.munmapRegion(a, 4 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 4u);
    EXPECT_EQ(r.spanned, 4u);
    EXPECT_EQ(mm.vmaCount(), 0u);
    EXPECT_EQ(mm.pageTable().presentPages(), 0u);
}

TEST_F(AddressSpaceFixture, MunmapMiddleSplitsVma)
{
    Addr a = mm.mmapRegion(6 * kPageSize, kProtRead | kProtWrite);
    populate(a, 6);
    UnmapResult r = mm.munmapRegion(a + 2 * kPageSize, 2 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 2u);
    EXPECT_EQ(mm.vmaCount(), 2u);
    EXPECT_NE(mm.findVma(a), nullptr);
    EXPECT_EQ(mm.findVma(a + 2 * kPageSize), nullptr);
    EXPECT_NE(mm.findVma(a + 4 * kPageSize), nullptr);
    EXPECT_EQ(mm.pageTable().presentPages(), 4u);
}

TEST_F(AddressSpaceFixture, MunmapSpanningTwoVmas)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    Addr b = mm.mmapRegion(2 * kPageSize, kProtRead);
    ASSERT_EQ(b, a + 2 * kPageSize); // first-fit packs them
    UnmapResult r = mm.munmapRegion(a + kPageSize, 2 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(mm.vmaCount(), 2u); // head of a, tail of b
}

TEST_F(AddressSpaceFixture, MunmapUnmappedRangeIsOkAndEmpty)
{
    UnmapResult r = mm.munmapRegion(0x5000'0000'0000ULL >> 1, kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.pages.empty());
}

TEST_F(AddressSpaceFixture, MunmapInvalidRangeFails)
{
    UnmapResult r = mm.munmapRegion(0x1000, 0);
    EXPECT_FALSE(r.ok);
}

TEST_F(AddressSpaceFixture, FirstFitReusesFreedRange)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    mm.mmapRegion(kPageSize, kProtRead);
    mm.munmapRegion(a, 2 * kPageSize);
    Addr c = mm.mmapRegion(kPageSize, kProtRead);
    EXPECT_EQ(c, a); // Linux-style immediate VA reuse
}

TEST_F(AddressSpaceFixture, MadviseKeepsVmaDropsPages)
{
    Addr a = mm.mmapRegion(4 * kPageSize, kProtRead | kProtWrite);
    populate(a, 4);
    UnmapResult r = mm.madviseRegion(a, 2 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 2u);
    EXPECT_EQ(mm.vmaCount(), 1u);
    EXPECT_EQ(mm.pageTable().presentPages(), 2u);
    EXPECT_NE(mm.findVma(a), nullptr); // still mapped (VMA-wise)
}

TEST_F(AddressSpaceFixture, MprotectRewritesPteWriteBits)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead | kProtWrite);
    populate(a, 2);
    UnmapResult r = mm.mprotectRegion(a, 2 * kPageSize, kProtRead);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 2u);
    EXPECT_FALSE(mm.pageTable().find(pageOf(a))->writable());
    EXPECT_EQ(mm.findVma(a)->prot, kProtRead);

    mm.mprotectRegion(a, kPageSize, kProtRead | kProtWrite);
    EXPECT_TRUE(mm.pageTable().find(pageOf(a))->writable());
    EXPECT_FALSE(
        mm.pageTable().find(pageOf(a) + 1)->writable());
    EXPECT_EQ(mm.vmaCount(), 2u); // split by the partial mprotect
}

TEST_F(AddressSpaceFixture, MremapMovesFramesToNewRange)
{
    Addr a = mm.mmapRegion(3 * kPageSize, kProtRead | kProtWrite);
    populate(a, 3);
    const Pfn f0 = mm.pageTable().find(pageOf(a))->pfn;
    UnmapResult moved;
    Addr b = mm.mremapRegion(a, 3 * kPageSize, 3 * kPageSize, &moved);
    ASSERT_NE(b, kAddrInvalid);
    EXPECT_NE(b, a);
    EXPECT_EQ(moved.pages.size(), 3u);
    EXPECT_EQ(mm.findVma(a), nullptr);
    ASSERT_NE(mm.pageTable().find(pageOf(b)), nullptr);
    EXPECT_EQ(mm.pageTable().find(pageOf(b))->pfn, f0);
    EXPECT_EQ(mm.pageTable().find(pageOf(a)), nullptr);
}

TEST_F(AddressSpaceFixture, MremapGrowKeepsOldFramesAndExtends)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead | kProtWrite);
    populate(a, 2);
    UnmapResult moved;
    Addr b = mm.mremapRegion(a, 2 * kPageSize, 4 * kPageSize, &moved);
    ASSERT_NE(b, kAddrInvalid);
    const Vma *vma = mm.findVma(b);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->pages(), 4u);
    EXPECT_EQ(mm.pageTable().presentPages(), 2u);
}

TEST_F(AddressSpaceFixture, MarkCowClearsWriteSetssCow)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead | kProtWrite);
    populate(a, 2);
    UnmapResult r = mm.markCowRegion(a, 2 * kPageSize);
    EXPECT_EQ(r.pages.size(), 2u);
    const Pte *pte = mm.pageTable().find(pageOf(a));
    EXPECT_TRUE(pte->cow());
    EXPECT_FALSE(pte->writable());
}

TEST_F(AddressSpaceFixture, HoldbackBlocksMmapReuse)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    mm.munmapRegion(a, 2 * kPageSize);
    mm.holdbackRange(a, a + 2 * kPageSize);
    Addr b = mm.mmapRegion(kPageSize, kProtRead);
    EXPECT_NE(b, a); // must skip the held-back range
    EXPECT_TRUE(mm.rangeHeldBack(a, a + kPageSize));
    EXPECT_EQ(mm.heldBackBytes(), 2 * kPageSize);

    mm.releaseHoldback(a, a + 2 * kPageSize);
    EXPECT_FALSE(mm.rangeHeldBack(a, a + kPageSize));
    // After release the first-fit allocator may reuse it again. The
    // new block b sits after a, so a is the first free gap.
    Addr c = mm.mmapRegion(kPageSize, kProtRead);
    EXPECT_EQ(c, a);
}

TEST_F(AddressSpaceFixture, HoldbackOverlapQueries)
{
    mm.holdbackRange(0x10000, 0x12000);
    EXPECT_TRUE(mm.rangeHeldBack(0x11000, 0x13000));
    EXPECT_TRUE(mm.rangeHeldBack(0x0f000, 0x10001));
    EXPECT_FALSE(mm.rangeHeldBack(0x12000, 0x13000));
    EXPECT_FALSE(mm.rangeHeldBack(0x0e000, 0x10000));
}

TEST_F(AddressSpaceFixture, SharersAccumulateAndClear)
{
    mm.noteAccess(50, 1);
    mm.noteAccess(50, 3);
    CpuMask s = mm.sharersOf(50);
    EXPECT_TRUE(s.test(1));
    EXPECT_TRUE(s.test(3));
    EXPECT_EQ(s.count(), 2u);
    mm.clearSharers(50);
    EXPECT_TRUE(mm.sharersOf(50).empty());
}

TEST_F(AddressSpaceFixture, MunmapKeepsSharersForThePolicy)
{
    // Sharer info must survive munmapRegion: the coherence policy
    // (ABIS) reads it to pick shootdown targets; the kernel clears
    // it afterwards via clearSharers().
    Addr a = mm.mmapRegion(kPageSize, kProtRead | kProtWrite);
    populate(a, 1);
    mm.noteAccess(pageOf(a), 2);
    mm.munmapRegion(a, kPageSize);
    EXPECT_TRUE(mm.sharersOf(pageOf(a)).test(2));
    mm.clearSharers(pageOf(a));
    EXPECT_TRUE(mm.sharersOf(pageOf(a)).empty());
}

TEST_F(AddressSpaceFixture, HoldbacksSharingAStartReleaseIndependently)
{
    // Two lazy frees from one start address park two ranges; each
    // release drops only its own.
    Addr a = mm.mmapRegion(4 * kPageSize, kProtRead);
    mm.munmapRegion(a, 4 * kPageSize);
    mm.holdbackRange(a, a + 2 * kPageSize);
    mm.holdbackRange(a, a + 4 * kPageSize);
    EXPECT_EQ(mm.heldBackBytes(), 4 * kPageSize);

    mm.releaseHoldback(a, a + 2 * kPageSize);
    EXPECT_TRUE(mm.rangeHeldBack(a, a + kPageSize));
    EXPECT_EQ(mm.heldBackBytes(), 4 * kPageSize);
    EXPECT_NE(mm.mmapRegion(kPageSize, kProtRead), a);

    mm.releaseHoldback(a, a + 4 * kPageSize);
    EXPECT_EQ(mm.heldBackBytes(), 0u);
    EXPECT_FALSE(mm.rangeHeldBack(a, a + 4 * kPageSize));
    EXPECT_EQ(mm.mmapRegion(kPageSize, kProtRead), a);
}

TEST_F(AddressSpaceFixture, NestedHoldbacksCoverTheOuterRange)
{
    // A held range that starts early reaches past a later, shorter
    // one: queries and mmap must still see the outer range.
    const Addr base = mm.mmapRegion(kPageSize, kProtRead);
    mm.munmapRegion(base, kPageSize);
    mm.holdbackRange(base - 16 * kPageSize, base + 16 * kPageSize);
    mm.holdbackRange(base - 8 * kPageSize, base - 7 * kPageSize);
    EXPECT_TRUE(mm.rangeHeldBack(base, base + kPageSize));
    EXPECT_EQ(mm.heldBackBytes(), 32 * kPageSize);
    EXPECT_EQ(mm.mmapRegion(kPageSize, kProtRead),
              base + 16 * kPageSize);
}

TEST_F(AddressSpaceFixture, ReleasingARangeNeverHeldPanics)
{
    Addr a = mm.mmapRegion(4 * kPageSize, kProtRead);
    mm.holdbackRange(a, a + 4 * kPageSize);
    EXPECT_DEATH(mm.releaseHoldback(a, a + 2 * kPageSize),
                 "not held back");
}

/**
 * Verbatim copy of AddressSpace::findFreeRange as it stood before
 * the one-pass walk: first fit from the mmap base, each bump
 * re-walking the VMA and held-back maps backwards from the window.
 * Its held-back map merges same-start ranges (the old holdback_);
 * its backward walks assume no held range nests inside another.
 */
Addr
refFindFreeRange(const std::map<Addr, Vma> &vmas_,
                 const std::map<Addr, Addr> &holdback_, Addr kMmapBase,
                 std::uint64_t len, std::uint64_t alignment)
{
    // First-fit over the union of live VMAs and held-back ranges.
    // Returns the greatest conflicting end overlapping [lo, lo+len),
    // or 0 when the window is free.
    auto conflict_end = [&](Addr lo, Addr hi) -> Addr {
        Addr worst = 0;
        // VMAs: the only candidates are the one starting before hi
        // closest to it and any starting within [lo, hi).
        auto it = vmas_.upper_bound(hi - 1);
        while (it != vmas_.begin()) {
            --it;
            if (it->second.end <= lo)
                break;
            if (it->second.overlaps(lo, hi))
                worst = std::max(worst, it->second.end);
        }
        auto hit = holdback_.upper_bound(hi - 1);
        while (hit != holdback_.begin()) {
            --hit;
            if (hit->second <= lo)
                break;
            if (hit->first < hi && hit->second > lo)
                worst = std::max(worst, hit->second);
        }
        return worst;
    };

    auto align_up = [&](Addr a) {
        return (a + alignment - 1) & ~(alignment - 1);
    };
    Addr candidate = align_up(kMmapBase);
    for (;;) {
        if (candidate + len > kUserVaLimit)
            return kAddrInvalid;
        Addr bump = conflict_end(candidate, candidate + len);
        if (bump == 0)
            return candidate;
        candidate = align_up(bump);
    }
}

/**
 * Brute-force first fit: the lowest aligned window at or above
 * @p base that overlaps nothing. Such a window starts at the aligned
 * base or at the aligned end of some range, so try only those.
 */
Addr
oracleFindFreeRange(const std::map<Addr, Vma> &vmas,
                    const std::vector<std::pair<Addr, Addr>> &held,
                    Addr base, std::uint64_t len, std::uint64_t alignment)
{
    auto align_up = [&](Addr a) {
        return (a + alignment - 1) & ~(alignment - 1);
    };
    std::vector<std::pair<Addr, Addr>> ranges = held;
    for (const auto &kv : vmas)
        ranges.emplace_back(kv.second.start, kv.second.end);
    std::vector<Addr> candidates{align_up(base)};
    for (const auto &r : ranges)
        candidates.push_back(std::max(align_up(base), align_up(r.second)));
    Addr best = kAddrInvalid;
    for (Addr c : candidates) {
        const bool free = std::none_of(
            ranges.begin(), ranges.end(), [&](const auto &r) {
                return r.first < c + len && r.second > c;
            });
        if (free && c + len <= kUserVaLimit)
            best = std::min(best, c);
    }
    return best;
}

/**
 * Drive one address space through seeded mmap / munmap / hold /
 * release traffic and check every mmap's placement: against the
 * brute-force oracle always, and against the old function while no
 * held range nests inside another (@p allow_nested false).
 */
void
checkPlacement(std::uint64_t seed, bool allow_nested)
{
    FrameAllocator frames(1, 64);
    AddressSpace mm(1, 0, frames);
    const Addr base = mm.mmapRegion(kPageSize, kProtRead);
    mm.munmapRegion(base, kPageSize);
    Rng rng(seed);
    std::vector<std::pair<Addr, Addr>> held; // as parked, in order
    std::vector<std::pair<Addr, Addr>> freed; // recent munmaps

    auto nests = [&](Addr s, Addr e) {
        for (const auto &h : held) {
            if ((h.first < s && e < h.second) ||
                (s < h.first && h.second < e))
                return true;
        }
        return false;
    };

    for (int op = 0; op < 400; ++op) {
        const std::uint64_t pick = rng.nextBounded(10);
        if (pick < 4) {
            const bool huge = rng.nextBounded(8) == 0;
            const std::uint64_t alignment = huge ? kHugePageSize : kPageSize;
            const std::uint64_t len =
                huge ? (1 + rng.nextBounded(2)) * kHugePageSize
                     : (1 + rng.nextBounded(24)) * kPageSize;
            std::map<Addr, Addr> merged;
            for (const auto &h : held)
                merged[h.first] = std::max(merged[h.first], h.second);
            const Addr want =
                oracleFindFreeRange(mm.vmas(), held, base, len, alignment);
            if (!allow_nested) {
                ASSERT_EQ(refFindFreeRange(mm.vmas(), merged, base, len,
                                           alignment),
                          want)
                    << "seed " << seed << " op " << op;
            }
            const Addr got = huge ? mm.mmapHugeRegion(len, kProtRead)
                                  : mm.mmapRegion(len, kProtRead);
            ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
        } else if (pick < 7 && mm.vmaCount() > 0) {
            // Unmap part of a live VMA, sometimes running past it.
            auto it = mm.vmas().begin();
            std::advance(it, rng.nextBounded(mm.vmaCount()));
            const Vma vma = it->second;
            const std::uint64_t pages = (vma.end - vma.start) / kPageSize;
            const Addr s = vma.start + rng.nextBounded(pages) * kPageSize;
            const Addr e = s + (1 + rng.nextBounded(8)) * kPageSize;
            mm.munmapRegion(s, e - s);
            freed.emplace_back(s, e);
        } else if (pick < 9 && !freed.empty()) {
            // Park a freed range, or a range sharing its start (a
            // second lazy free of the same address).
            const auto f = freed[rng.nextBounded(freed.size())];
            const Addr e =
                rng.nextBounded(2) ? f.second
                                   : f.first + (1 + rng.nextBounded(6)) *
                                                   kPageSize;
            if (!allow_nested && nests(f.first, e))
                continue;
            mm.holdbackRange(f.first, e);
            held.emplace_back(f.first, e);
        } else if (!held.empty()) {
            const std::size_t i = rng.nextBounded(held.size());
            mm.releaseHoldback(held[i].first, held[i].second);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        }
    }
}

TEST(FindFreeRange, MatchesFirstFitRewalkOnSeededTraffic)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        checkPlacement(seed, false);
}

TEST(FindFreeRange, MatchesBruteForceWithNestedHoldbacks)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        checkPlacement(seed, true);
}

} // namespace
} // namespace latr
