// Unit tests for the two-level TLB model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "hw/tlb.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

namespace latr
{
namespace
{

/** Counts listener traffic and mirrors membership. */
class MirrorListener : public TlbListener
{
  public:
    void
    onTlbInsert(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        ++inserts;
        live[key(vpn, pcid)] = pfn;
    }

    void
    onTlbRemove(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        ++removes;
        auto it = live.find(key(vpn, pcid));
        ASSERT_NE(it, live.end());
        EXPECT_EQ(it->second, pfn);
        live.erase(it);
    }

    static std::uint64_t
    key(Vpn vpn, Pcid pcid)
    {
        return (static_cast<std::uint64_t>(pcid) << 48) | vpn;
    }

    int inserts = 0;
    int removes = 0;
    std::map<std::uint64_t, Pfn> live;
};

TEST(Tlb, MissThenInsertThenHit)
{
    Tlb tlb(0, 4, 8);
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(10, 0, &pfn), TlbResult::Miss);
    tlb.insert(10, 99, 0);
    EXPECT_EQ(tlb.lookup(10, 0, &pfn), TlbResult::HitL1);
    EXPECT_EQ(pfn, 99u);
    EXPECT_EQ(tlb.l1Hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, L1EvictionSpillsToL2AndHitsThere)
{
    Tlb tlb(0, 2, 4);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // evicts vpn 1 (LRU) into L2
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(1, 0, &pfn), TlbResult::HitL2);
    EXPECT_EQ(pfn, 101u);
    EXPECT_EQ(tlb.l2Hits(), 1u);
}

TEST(Tlb, L2PromotionMovesEntryBackToL1)
{
    Tlb tlb(0, 2, 4);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // vpn 1 -> L2
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL2);
    // Promoted: next lookup is an L1 hit.
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL1);
}

TEST(Tlb, TrueLruOrderRespectsTouches)
{
    Tlb tlb(0, 2, 2);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    // Touch vpn 1 so vpn 2 becomes LRU.
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL1);
    tlb.insert(3, 103, 0); // evicts vpn 2 (the LRU) to L2
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL2);
    // Promoting vpn 2 into the 2-entry L1 demoted vpn 1 in turn.
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL2);
}

TEST(Tlb, TotalCapacityEnforced)
{
    Tlb tlb(0, 2, 2);
    for (Vpn v = 0; v < 10; ++v)
        tlb.insert(v, 100 + v, 0);
    EXPECT_LE(tlb.size(), 4u);
}

TEST(Tlb, InvalidatePageRemovesFromBothLevels)
{
    Tlb tlb(0, 2, 4);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // vpn 1 now in L2
    tlb.invalidatePage(1, 0);
    tlb.invalidatePage(3, 0);
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(3, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL1);
}

TEST(Tlb, InvalidateRangeIsInclusive)
{
    Tlb tlb(0, 8, 8);
    for (Vpn v = 10; v <= 15; ++v)
        tlb.insert(v, 100 + v, 0);
    tlb.invalidateRange(11, 13, 0);
    EXPECT_EQ(tlb.lookup(10, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(11, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(12, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(13, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(14, 0), TlbResult::HitL1);
}

TEST(Tlb, PcidSeparatesAddressSpaces)
{
    Tlb tlb(0, 8, 8);
    tlb.insert(10, 100, 1);
    tlb.insert(10, 200, 2);
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(10, 1, &pfn), TlbResult::HitL1);
    EXPECT_EQ(pfn, 100u);
    EXPECT_EQ(tlb.lookup(10, 2, &pfn), TlbResult::HitL1);
    EXPECT_EQ(pfn, 200u);
}

TEST(Tlb, InvalidatePcidOnlyDropsThatSpace)
{
    Tlb tlb(0, 8, 8);
    tlb.insert(10, 100, 1);
    tlb.insert(11, 101, 1);
    tlb.insert(10, 200, 2);
    tlb.invalidatePcid(1);
    EXPECT_EQ(tlb.lookup(10, 1), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(11, 1), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(10, 2), TlbResult::HitL1);
}

TEST(Tlb, InvalidateRangeHonorsPcid)
{
    Tlb tlb(0, 8, 8);
    tlb.insert(10, 100, 1);
    tlb.insert(10, 200, 2);
    tlb.invalidateRange(0, 100, 1);
    EXPECT_EQ(tlb.lookup(10, 1), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(10, 2), TlbResult::HitL1);
}

TEST(Tlb, FlushAllEmptiesAndCounts)
{
    Tlb tlb(0, 4, 4);
    for (Vpn v = 0; v < 6; ++v)
        tlb.insert(v, v, 0);
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.lookup(0, 0), TlbResult::Miss);
}

TEST(Tlb, ProbeHasNoLruSideEffects)
{
    Tlb tlb(0, 2, 2);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    // Probing vpn 1 must NOT refresh it...
    EXPECT_TRUE(tlb.probe(1, 0));
    tlb.insert(3, 103, 0); // ...so vpn 1 is still the LRU victim
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL2);
}

TEST(Tlb, ListenerSeesNetMembershipChanges)
{
    Tlb tlb(0, 2, 2);
    MirrorListener listener;
    tlb.setListener(&listener);

    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    EXPECT_EQ(listener.inserts, 2);
    EXPECT_EQ(listener.removes, 0);

    // Spill to L2 is not a removal...
    tlb.insert(3, 103, 0);
    EXPECT_EQ(listener.removes, 0);
    // ...but falling out of L2 is.
    tlb.insert(4, 104, 0);
    tlb.insert(5, 105, 0);
    EXPECT_GT(listener.removes, 0);
    EXPECT_EQ(listener.live.size(), tlb.size());
}

TEST(Tlb, ListenerSeesRemapAsRemovePlusInsert)
{
    Tlb tlb(0, 4, 4);
    MirrorListener listener;
    tlb.setListener(&listener);
    tlb.insert(1, 101, 0);
    tlb.insert(1, 999, 0); // same vpn, new frame
    EXPECT_EQ(listener.inserts, 2);
    EXPECT_EQ(listener.removes, 1);
    Pfn pfn = 0;
    tlb.lookup(1, 0, &pfn);
    EXPECT_EQ(pfn, 999u);
    EXPECT_EQ(tlb.size(), 1u);
}

TEST(Tlb, ReinsertSameTranslationIsQuietForListener)
{
    Tlb tlb(0, 4, 4);
    MirrorListener listener;
    tlb.setListener(&listener);
    tlb.insert(1, 101, 0);
    tlb.insert(1, 101, 0); // identical
    EXPECT_EQ(listener.inserts, 1);
    EXPECT_EQ(listener.removes, 0);
    EXPECT_EQ(tlb.size(), 1u);
}

TEST(Tlb, FlushNotifiesEveryEntry)
{
    Tlb tlb(0, 4, 4);
    MirrorListener listener;
    tlb.setListener(&listener);
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(v, v, 0);
    tlb.flushAll();
    EXPECT_EQ(listener.removes, 4);
    EXPECT_TRUE(listener.live.empty());
}

/** Logs every listener event, in order, as text. */
class LogListener : public TlbListener
{
  public:
    void
    onTlbInsert(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        log.push_back("+" + std::to_string(pcid) + ":" +
                      std::to_string(vpn) + "=" + std::to_string(pfn));
    }

    void
    onTlbRemove(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        log.push_back("-" + std::to_string(pcid) + ":" +
                      std::to_string(vpn) + "=" + std::to_string(pfn));
    }

    std::vector<std::string> log;
};

/**
 * Drive @p tlb through a fixed mix of inserts, huge inserts, and
 * lookups that overflows every level; @return the lookup outcomes.
 */
std::vector<int>
churn(Tlb &tlb)
{
    std::vector<int> outcomes;
    for (Vpn v = 0; v < 40; ++v) {
        tlb.insert(1000 + v * 7, 5000 + v, v % 3);
        if (v % 4 == 0)
            tlb.insertHuge(v * kHugePageSpan, 90000 + v, 1);
        if (v % 5 == 0)
            outcomes.push_back(static_cast<int>(
                tlb.lookup(1000 + (v / 2) * 7, (v / 2) % 3)));
    }
    for (Vpn v = 0; v < 40; ++v)
        outcomes.push_back(
            static_cast<int>(tlb.lookup(1000 + v * 7, v % 3)));
    return outcomes;
}

class TlbFlushFreshState : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TlbFlushFreshState, FlushLeavesAFreshTlb)
{
    // Param: translations installed before the flush — none, a few
    // (L1 full, L2 partly), or enough to fill every level (4 + 8
    // base, 4 huge).
    const unsigned fill = GetParam();
    Tlb used(0, 4, 8, 4);
    MirrorListener mirror;
    used.setListener(&mirror);
    for (Vpn v = 0; v < fill; ++v) {
        used.insert(v, 100 + v, v % 2);
        if (v % 3 == 0)
            used.insertHuge((64 + v) * kHugePageSpan, 700 + v, 0);
        used.lookup(v / 2, (v / 2) % 2); // reorder the LRU chains
    }
    TraceRecorder trace;
    trace.setEnabled(true);
    used.setTracer(&trace);

    const std::size_t live = used.size();
    ASSERT_EQ(mirror.live.size(), live);
    const int removes = mirror.removes;
    used.flushAll();
    // An empty flush is still a flush.
    EXPECT_EQ(used.flushes(), 1u);
    EXPECT_EQ(used.size(), 0u);
    // Listeners see exactly the live entries, each once.
    EXPECT_EQ(mirror.removes - removes, static_cast<int>(live));
    EXPECT_TRUE(mirror.live.empty());
    const std::vector<TraceRecord> records = trace.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_STREQ(records[0].name, "tlb.flush_all");
    EXPECT_EQ(records[0].arg, live);
    used.setTracer(nullptr);

    // From here on, the flushed TLB behaves exactly like a new one:
    // same hits, same evictions in the same LRU order.
    Tlb fresh(0, 4, 8, 4);
    LogListener used_log;
    LogListener fresh_log;
    used.setListener(&used_log);
    fresh.setListener(&fresh_log);
    EXPECT_EQ(churn(used), churn(fresh));
    EXPECT_EQ(used_log.log, fresh_log.log);
    used.flushAll();
    fresh.flushAll();
    EXPECT_EQ(used_log.log, fresh_log.log);
    EXPECT_EQ(used.flushes(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Fill, TlbFlushFreshState,
                         ::testing::Values(0u, 5u, 40u));

// --- LRU golden tests: written against the list+map level and
// --- required to pass verbatim on the slot-array level.

TEST(TlbGolden, EvictionCascadeL1ToL2ToGone)
{
    Tlb tlb(0, 2, 2);
    MirrorListener listener;
    tlb.setListener(&listener);
    // 1,2 fill L1; 3,4 spill 1,2 into L2; 5 spills 3, whose arrival
    // evicts the L2 LRU (vpn 1) out of the TLB entirely.
    for (Vpn v = 1; v <= 5; ++v)
        tlb.insert(v, 100 + v, 0);
    EXPECT_FALSE(tlb.probe(1, 0));
    EXPECT_TRUE(tlb.probe(2, 0));
    EXPECT_TRUE(tlb.probe(3, 0));
    EXPECT_TRUE(tlb.probe(4, 0));
    EXPECT_TRUE(tlb.probe(5, 0));
    EXPECT_EQ(listener.removes, 1);
    EXPECT_EQ(tlb.size(), 4u);
    // Exact level placement: 5,4 in L1; 3,2 in L2.
    EXPECT_EQ(tlb.lookup(4, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(5, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL2);
    EXPECT_EQ(tlb.lookup(3, 0), TlbResult::HitL2);
}

TEST(TlbGolden, L2HitPromotionDemotesL1Lru)
{
    Tlb tlb(0, 2, 2);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // L1 {3,2}, L2 {1}
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(1, 0, &pfn), TlbResult::HitL2);
    EXPECT_EQ(pfn, 101u);
    // Promotion put 1 into L1 and demoted the L1 LRU (vpn 2) to L2.
    EXPECT_EQ(tlb.lookup(3, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL2);
}

TEST(TlbGolden, InvalidateRangeBoundaryVpns)
{
    Tlb tlb(0, 8, 8);
    for (Vpn v = 99; v <= 104; ++v)
        tlb.insert(v, v, 0);
    // Narrow range (below occupancy): exercises the probe path of an
    // adaptive implementation.
    tlb.invalidateRange(100, 103, 0);
    EXPECT_TRUE(tlb.probe(99, 0));
    EXPECT_FALSE(tlb.probe(100, 0));
    EXPECT_FALSE(tlb.probe(103, 0));
    EXPECT_TRUE(tlb.probe(104, 0));
    // Wide range (beyond occupancy): exercises the scan path.
    tlb.invalidateRange(0, 1'000'000, 0);
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(TlbGolden, InvalidateRangeHitsOverlappingHugeEntries)
{
    Tlb tlb(0, 4, 4, 4);
    tlb.insertHuge(0, 1000, 0);    // covers vpn 0..511
    tlb.insertHuge(512, 2000, 0);  // covers vpn 512..1023
    tlb.insertHuge(1024, 3000, 0); // covers vpn 1024..1535
    // A range touching only the tail page of the first region drops
    // that region but not its neighbor.
    tlb.invalidateRange(511, 511, 0);
    EXPECT_FALSE(tlb.probeHuge(0, 0));
    EXPECT_TRUE(tlb.probeHuge(512, 0));
    // A range starting exactly at a region's base drops it.
    tlb.invalidateRange(1024, 1024, 0);
    EXPECT_FALSE(tlb.probeHuge(1024, 0));
    EXPECT_TRUE(tlb.probeHuge(512, 0));
}

TEST(TlbGolden, InvalidatePcidWithInterleavedPcids)
{
    Tlb tlb(0, 4, 4);
    tlb.insert(10, 1, 1);
    tlb.insert(10, 2, 2);
    tlb.insert(11, 3, 1);
    tlb.insert(11, 4, 2);
    tlb.invalidatePcid(1);
    EXPECT_FALSE(tlb.probe(10, 1));
    EXPECT_FALSE(tlb.probe(11, 1));
    EXPECT_TRUE(tlb.probe(10, 2));
    EXPECT_TRUE(tlb.probe(11, 2));
    // Survivors keep their LRU order: (10,2) is the older of the two
    // and is the first demoted once the level refills.
    tlb.insert(20, 5, 2);
    tlb.insert(21, 6, 2);
    tlb.insert(22, 7, 2);
    EXPECT_EQ(tlb.lookup(10, 2), TlbResult::HitL2);
    EXPECT_EQ(tlb.lookup(11, 2), TlbResult::HitL2);
}

TEST(TlbGolden, HugeArrayIndependentOfBaseLevels)
{
    Tlb tlb(0, 2, 2, 2);
    tlb.insertHuge(0, 1000, 0);
    tlb.insertHuge(512, 2000, 0);
    // Churning the 4 KiB arrays never evicts huge entries.
    for (Vpn v = 5000; v < 5010; ++v)
        tlb.insert(v, v, 0);
    EXPECT_TRUE(tlb.probeHuge(0, 0));
    EXPECT_TRUE(tlb.probeHuge(700, 0));
    EXPECT_EQ(tlb.hugeSize(), 2u);
    // A lookup through a huge entry offsets into the region.
    Pfn pfn = 0;
    bool huge = false;
    EXPECT_EQ(tlb.lookup(513, 0, &pfn, nullptr, &huge),
              TlbResult::HitL1);
    EXPECT_TRUE(huge);
    EXPECT_EQ(pfn, 2001u);
    // A third huge entry evicts only the huge LRU (base 0: the
    // lookup above touched 512).
    tlb.insertHuge(1024, 3000, 0);
    EXPECT_FALSE(tlb.probeHuge(0, 0));
    EXPECT_TRUE(tlb.probeHuge(512, 0));
    EXPECT_TRUE(tlb.probeHuge(1024, 0));
    EXPECT_EQ(tlb.hugeSize(), 2u);
}

class TlbFillSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TlbFillSweep, SizeNeverExceedsConfiguredCapacity)
{
    const unsigned l1 = GetParam();
    Tlb tlb(0, l1, 2 * l1);
    for (Vpn v = 0; v < 10 * l1; ++v) {
        tlb.insert(v, v, 0);
        EXPECT_LE(tlb.size(), static_cast<std::size_t>(3 * l1));
    }
    // All most-recent l1 insertions must still hit in L1.
    for (Vpn v = 10 * l1 - l1; v < 10 * l1; ++v)
        EXPECT_EQ(tlb.lookup(v, 0), TlbResult::HitL1) << v;
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbFillSweep,
                         ::testing::Values(2u, 4u, 64u));

// --- A TLB writes slots and index cells as entries arrive.

/** The index of an array holding @p entries: ≤50% load, ≥ minimum. */
std::size_t
expectedIndexCells(std::size_t entries, std::size_t capacity)
{
    std::size_t full = 1;
    while (full < 2 * capacity)
        full <<= 1;
    std::size_t cells = std::min<std::size_t>(full, Tlb::kMinIndexCells);
    while (cells < 2 * entries)
        cells <<= 1;
    return cells;
}

TEST(TlbFresh, UnusedTlbTouchesNoSlotAndHoldsTheMinimumIndex)
{
    for (const auto &[l1, l2, huge] :
         {std::tuple{64u, 1024u, 32u}, std::tuple{64u, 512u, 32u},
          std::tuple{2u, 3u, 1u}}) {
        Tlb tlb(0, l1, l2, huge);
        // Misses, probes and flushes of an empty TLB write nothing.
        EXPECT_EQ(tlb.lookup(7, 0), TlbResult::Miss);
        EXPECT_FALSE(tlb.probe(7, 0));
        tlb.invalidateRange(0, 100, 0);
        tlb.flushAll();
        EXPECT_EQ(tlb.slotsTouched(), 0u) << l1 << "/" << l2;
        EXPECT_EQ(tlb.indexCells(), expectedIndexCells(0, l1 + l2))
            << l1 << "/" << l2;
        EXPECT_EQ(tlb.hugeIndexCells(), expectedIndexCells(0, huge))
            << huge;
    }
    EXPECT_EQ(Tlb(0, 64, 1024, 32).indexCells(), Tlb::kMinIndexCells);
}

TEST(TlbFresh, IndexDoublesBeforeItsLoadPassesHalf)
{
    const unsigned l1 = 64, l2 = 1024, huge = 32;
    Tlb tlb(0, l1, l2, huge);
    for (unsigned n = 1; n <= l1 + l2; ++n) {
        tlb.insert(n, n, n % 3);
        ASSERT_EQ(tlb.indexCells(), expectedIndexCells(n, l1 + l2))
            << n << " entries";
        ASSERT_GE(tlb.indexCells(), 2u * n);
        ASSERT_EQ(tlb.slotsTouched(), n);
    }
    EXPECT_EQ(tlb.indexCells(), 4096u); // 1088 entries at ≤50% load
    // Every doubling re-placed both tiers' entries.
    for (unsigned n = 1; n <= l1 + l2; ++n)
        ASSERT_TRUE(tlb.probe(n, n % 3)) << n;
    for (unsigned n = 1; n <= huge; ++n) {
        tlb.insertHuge(n * kHugePageSpan, n, 0);
        ASSERT_EQ(tlb.hugeIndexCells(), expectedIndexCells(n, huge))
            << n << " huge entries";
        ASSERT_GE(tlb.hugeIndexCells(), 2u * n);
    }
    EXPECT_EQ(tlb.hugeIndexCells(), 64u);
    // A full TLB evicts instead of growing.
    tlb.insert(5000, 1, 0);
    tlb.insertHuge(5000 * kHugePageSpan, 1, 0);
    EXPECT_EQ(tlb.indexCells(), 4096u);
    EXPECT_EQ(tlb.hugeIndexCells(), 64u);
    EXPECT_EQ(tlb.slotsTouched(), l1 + l2 + huge);
}

TEST(TlbFresh, ReleasedSlotsAreReusedBeforeNewOnes)
{
    Tlb tlb(0, 64, 1024, 32);
    for (Vpn v = 0; v < 40; ++v)
        tlb.insert(v, v, 1);
    tlb.flushAll();
    for (Vpn v = 100; v < 130; ++v)
        tlb.insert(v, v, 1);
    tlb.invalidateRange(100, 109, 1);
    for (Vpn v = 200; v < 220; ++v)
        tlb.insert(v, v, 1);
    EXPECT_EQ(tlb.slotsTouched(), 40u);
    EXPECT_EQ(tlb.size(), 40u);
    // The index never shrinks: it still holds the 40-entry peak.
    EXPECT_EQ(tlb.indexCells(), 128u);
}

// --- Differential test: the shared-index TLB against the two-level
// --- TLB it replaced, op for op.

/**
 * The reference: the TLB as it was before L1 and L2 shared one index,
 * kept verbatim apart from tracing. Each level is its own slot array
 * with its own probe table, so an L2 hit removes the entry from L2,
 * inserts it into L1 and inserts L1's victim into L2.
 */
class RefTlb
{
  public:
    RefTlb(CoreId core, unsigned l1_entries, unsigned l2_entries,
           unsigned huge_entries)
        : core_(core), l1_(l1_entries), l2_(l2_entries),
          huge_(huge_entries)
    {}

    void setListener(TlbListener *listener) { listener_ = listener; }

    TlbResult
    lookup(Vpn vpn, Pcid pcid, Pfn *pfn_out, bool *writable_out,
           bool *huge_out)
    {
        *huge_out = false;
        Key hk{hugeBaseOf(vpn), pcid};
        if (const Entry *e = huge_.touch(hk)) {
            ++l1Hits_;
            *pfn_out = e->pfn + (vpn - hugeBaseOf(vpn));
            *writable_out = e->writable;
            *huge_out = true;
            return TlbResult::HitL1;
        }
        Key k{vpn, pcid};
        if (const Entry *e = l1_.touch(k)) {
            ++l1Hits_;
            *pfn_out = e->pfn;
            *writable_out = e->writable;
            return TlbResult::HitL1;
        }
        Entry promoted;
        if (l2_.remove(k, &promoted)) {
            ++l2Hits_;
            *pfn_out = promoted.pfn;
            *writable_out = promoted.writable;
            Entry l1_victim;
            bool had_l1_victim = false;
            l1_.insert(promoted, &l1_victim, &had_l1_victim);
            if (had_l1_victim) {
                Entry l2_victim;
                bool had_l2_victim = false;
                l2_.insert(l1_victim, &l2_victim, &had_l2_victim);
                if (had_l2_victim)
                    notifyRemove(l2_victim);
            }
            return TlbResult::HitL2;
        }
        ++misses_;
        return TlbResult::Miss;
    }

    bool
    probe(Vpn vpn, Pcid pcid) const
    {
        Key k{vpn, pcid};
        return l1_.peek(k) != nullptr || l2_.peek(k) != nullptr ||
               probeHuge(vpn, pcid);
    }

    bool
    probeHuge(Vpn vpn, Pcid pcid) const
    {
        return huge_.peek(Key{hugeBaseOf(vpn), pcid}) != nullptr;
    }

    bool
    probePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
    {
        Key k{vpn, pcid};
        if (const Entry *e = l1_.peek(k)) {
            *pfn_out = e->pfn;
            return true;
        }
        if (const Entry *e = l2_.peek(k)) {
            *pfn_out = e->pfn;
            return true;
        }
        return probeHugePfn(vpn, pcid, pfn_out);
    }

    bool
    probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
    {
        if (const Entry *e = huge_.peek(Key{hugeBaseOf(vpn), pcid})) {
            *pfn_out = e->pfn;
            return true;
        }
        return false;
    }

    void
    insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable)
    {
        Key k{vpn, pcid};
        Entry old;
        bool existed = l1_.remove(k, &old) || l2_.remove(k, &old);
        bool same_frame = existed && old.pfn == pfn;
        if (existed && !same_frame)
            notifyRemove(old);
        Entry e{k, pfn, writable};
        Entry l1_victim;
        bool had_l1_victim = false;
        l1_.insert(e, &l1_victim, &had_l1_victim);
        if (!same_frame)
            notifyInsert(e);
        if (had_l1_victim) {
            Entry l2_victim;
            bool had_l2_victim = false;
            l2_.insert(l1_victim, &l2_victim, &had_l2_victim);
            if (had_l2_victim)
                notifyRemove(l2_victim);
        }
    }

    void
    insertHuge(Vpn base_vpn, Pfn base_pfn, Pcid pcid, bool writable)
    {
        Key k{hugeBaseOf(base_vpn), pcid};
        Entry old;
        bool existed = huge_.remove(k, &old);
        bool same_frame = existed && old.pfn == base_pfn;
        if (existed && !same_frame)
            notifyRemove(old);
        Entry e{k, base_pfn, writable};
        Entry victim;
        bool had_victim = false;
        huge_.insert(e, &victim, &had_victim);
        if (!same_frame)
            notifyInsert(e);
        if (had_victim)
            notifyRemove(victim);
    }

    void
    invalidatePage(Vpn vpn, Pcid pcid)
    {
        Key k{vpn, pcid};
        Entry removed;
        if (l1_.remove(k, &removed))
            notifyRemove(removed);
        if (l2_.remove(k, &removed))
            notifyRemove(removed);
        if (huge_.remove(Key{hugeBaseOf(vpn), pcid}, &removed))
            notifyRemove(removed);
    }

    void
    invalidateRange(Vpn start_vpn, Vpn end_vpn, Pcid pcid)
    {
        invalidateRangeIn(l1_, start_vpn, end_vpn, pcid);
        invalidateRangeIn(l2_, start_vpn, end_vpn, pcid);
        const Vpn hb_start = hugeBaseOf(start_vpn);
        const Vpn hb_end = hugeBaseOf(end_vpn);
        const std::uint64_t bases =
            (hb_end - hb_start) / kHugePageSpan + 1;
        if (bases < huge_.size()) {
            Entry removed;
            for (Vpn b = hb_start;; b += kHugePageSpan) {
                if (huge_.remove(Key{b, pcid}, &removed))
                    notifyRemove(removed);
                if (b == hb_end)
                    break;
            }
        } else {
            huge_.removeMatching(
                [&](const Entry &e) {
                    return e.key.pcid == pcid && e.key.vpn <= end_vpn &&
                           e.key.vpn + kHugePageSpan - 1 >= start_vpn;
                },
                [&](const Entry &e) { notifyRemove(e); });
        }
    }

    void
    invalidatePcid(Pcid pcid)
    {
        auto match = [&](const Entry &e) { return e.key.pcid == pcid; };
        auto notify = [&](const Entry &e) { notifyRemove(e); };
        l1_.removeMatching(match, notify);
        l2_.removeMatching(match, notify);
        huge_.removeMatching(match, notify);
    }

    void
    flushAll()
    {
        ++flushes_;
        if (listener_) {
            l1_.forEach([&](const Entry &e) { notifyRemove(e); });
            l2_.forEach([&](const Entry &e) { notifyRemove(e); });
            huge_.forEach([&](const Entry &e) { notifyRemove(e); });
        }
        l1_.clear();
        l2_.clear();
        huge_.clear();
    }

    std::size_t
    size() const
    {
        return l1_.size() + l2_.size() + huge_.size();
    }
    std::size_t hugeSize() const { return huge_.size(); }
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t flushes() const { return flushes_; }

  private:
    struct Key
    {
        Vpn vpn;
        Pcid pcid;

        bool
        operator==(const Key &o) const
        {
            return vpn == o.vpn && pcid == o.pcid;
        }
    };

    struct Entry
    {
        Key key;
        Pfn pfn;
        bool writable;
    };

    /** One fully associative LRU level with its own probe table. */
    class Level
    {
      public:
        explicit Level(unsigned capacity) : capacity_(capacity)
        {
            std::uint32_t table_size = 1;
            while (table_size < 2 * capacity)
                table_size <<= 1;
            mask_ = table_size - 1;
            table_.assign(table_size, kNil);
            slots_.resize(capacity);
            for (unsigned i = 0; i < capacity; ++i)
                slots_[i].next = static_cast<std::uint16_t>(
                    i + 1 < capacity ? i + 1 : kNil);
            freeHead_ = 0;
        }

        const Entry *
        touch(const Key &k)
        {
            const std::uint16_t i = findSlot(k);
            if (i == kNil)
                return nullptr;
            if (i != head_) {
                unlink(i);
                linkFront(i);
            }
            return &slots_[i].entry;
        }

        const Entry *
        peek(const Key &k) const
        {
            const std::uint16_t i = findSlot(k);
            return i == kNil ? nullptr : &slots_[i].entry;
        }

        void
        insert(const Entry &e, Entry *victim_out, bool *had_victim)
        {
            *had_victim = false;
            const std::uint16_t existing = findSlot(e.key);
            if (existing != kNil) {
                slots_[existing].entry.pfn = e.pfn;
                slots_[existing].entry.writable = e.writable;
                if (existing != head_) {
                    unlink(existing);
                    linkFront(existing);
                }
                return;
            }
            if (size_ >= capacity_) {
                *victim_out = slots_[tail_].entry;
                *had_victim = true;
                eraseSlot(tail_);
            }
            const std::uint16_t slot = freeHead_;
            freeHead_ = slots_[slot].next;
            slots_[slot].entry = e;
            linkFront(slot);
            std::uint32_t pos = hashOf(e.key) & mask_;
            while (table_[pos] != kNil)
                pos = (pos + 1) & mask_;
            table_[pos] = slot;
            ++size_;
        }

        bool
        remove(const Key &k, Entry *removed_out)
        {
            const std::uint16_t i = findSlot(k);
            if (i == kNil)
                return false;
            *removed_out = slots_[i].entry;
            eraseSlot(i);
            return true;
        }

        std::size_t size() const { return size_; }

        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (std::uint16_t i = head_; i != kNil; i = slots_[i].next)
                fn(slots_[i].entry);
        }

        template <typename Pred, typename OnRemove>
        void
        removeMatching(Pred &&pred, OnRemove &&on_remove)
        {
            std::uint16_t i = head_;
            while (i != kNil) {
                const std::uint16_t next = slots_[i].next;
                if (pred(slots_[i].entry)) {
                    const Entry removed = slots_[i].entry;
                    eraseSlot(i);
                    on_remove(removed);
                }
                i = next;
            }
        }

        void
        clear()
        {
            while (head_ != kNil)
                eraseSlot(head_);
        }

      private:
        static constexpr std::uint16_t kNil = 0xffff;

        struct Slot
        {
            Entry entry;
            std::uint16_t prev;
            std::uint16_t next;
        };

        static std::uint32_t
        hashOf(const Key &k)
        {
            std::uint64_t h =
                (static_cast<std::uint64_t>(k.pcid) << 48) ^ k.vpn;
            h *= 0x9e3779b97f4a7c15ULL;
            return static_cast<std::uint32_t>(h >> 32);
        }

        std::uint16_t
        findSlot(const Key &k) const
        {
            std::uint32_t i = hashOf(k) & mask_;
            while (table_[i] != kNil) {
                if (slots_[table_[i]].entry.key == k)
                    return table_[i];
                i = (i + 1) & mask_;
            }
            return kNil;
        }

        void
        unlink(std::uint16_t i)
        {
            const Slot &s = slots_[i];
            if (s.prev != kNil)
                slots_[s.prev].next = s.next;
            else
                head_ = s.next;
            if (s.next != kNil)
                slots_[s.next].prev = s.prev;
            else
                tail_ = s.prev;
        }

        void
        linkFront(std::uint16_t i)
        {
            Slot &s = slots_[i];
            s.prev = kNil;
            s.next = head_;
            if (head_ != kNil)
                slots_[head_].prev = i;
            else
                tail_ = i;
            head_ = i;
        }

        void
        tableErase(std::uint16_t slot)
        {
            std::uint32_t i = hashOf(slots_[slot].entry.key) & mask_;
            while (table_[i] != slot)
                i = (i + 1) & mask_;
            std::uint32_t j = i;
            for (;;) {
                table_[i] = kNil;
                std::uint32_t home;
                do {
                    j = (j + 1) & mask_;
                    if (table_[j] == kNil)
                        return;
                    home = hashOf(slots_[table_[j]].entry.key) & mask_;
                } while (i <= j ? (home > i && home <= j)
                                : (home > i || home <= j));
                table_[i] = table_[j];
                i = j;
            }
        }

        void
        eraseSlot(std::uint16_t i)
        {
            tableErase(i);
            unlink(i);
            slots_[i].next = freeHead_;
            freeHead_ = i;
            --size_;
        }

        unsigned capacity_;
        std::uint32_t mask_;
        std::size_t size_ = 0;
        std::uint16_t head_ = kNil;
        std::uint16_t tail_ = kNil;
        std::uint16_t freeHead_ = kNil;
        std::vector<Slot> slots_;
        std::vector<std::uint16_t> table_;
    };

    void
    notifyInsert(const Entry &e)
    {
        if (listener_)
            listener_->onTlbInsert(core_, e.key.vpn, e.pfn, e.key.pcid);
    }

    void
    notifyRemove(const Entry &e)
    {
        if (listener_)
            listener_->onTlbRemove(core_, e.key.vpn, e.pfn, e.key.pcid);
    }

    void
    invalidateRangeIn(Level &level, Vpn start_vpn, Vpn end_vpn,
                      Pcid pcid)
    {
        const std::uint64_t span = end_vpn - start_vpn + 1;
        if (span != 0 && span < level.size()) {
            Entry removed;
            for (Vpn v = start_vpn;; ++v) {
                if (level.remove(Key{v, pcid}, &removed))
                    notifyRemove(removed);
                if (v == end_vpn)
                    break;
            }
        } else {
            level.removeMatching(
                [&](const Entry &e) {
                    return e.key.pcid == pcid && e.key.vpn >= start_vpn &&
                           e.key.vpn <= end_vpn;
                },
                [&](const Entry &e) { notifyRemove(e); });
        }
    }

    CoreId core_;
    Level l1_;
    Level l2_;
    Level huge_;
    TlbListener *listener_ = nullptr;
    std::uint64_t l1Hits_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t flushes_ = 0;
};

/** Records every listener event, in order, for exact comparison. */
class EventLog : public TlbListener
{
  public:
    struct Event
    {
        bool insert;
        CoreId core;
        Vpn vpn;
        Pfn pfn;
        Pcid pcid;

        bool operator==(const Event &) const = default;
    };

    void
    onTlbInsert(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        events.push_back({true, core, vpn, pfn, pcid});
    }

    void
    onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        events.push_back({false, core, vpn, pfn, pcid});
    }

    std::vector<Event> events;
};

std::ostream &
operator<<(std::ostream &os, const EventLog::Event &e)
{
    return os << (e.insert ? "+" : "-") << e.core << "/" << e.pcid << ":"
              << e.vpn << "=" << e.pfn;
}

/** (L1 entries, L2 entries, huge entries, seed). */
using DiffParam = std::tuple<unsigned, unsigned, unsigned, std::uint64_t>;

class TlbDifferential : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(TlbDifferential, MatchesTwoLevelTlbOpForOp)
{
    const auto [l1, l2, huge, seed] = GetParam();
    Tlb tlb(3, l1, l2, huge);
    RefTlb ref(3, l1, l2, huge);
    EventLog got;
    EventLog want;
    tlb.setListener(&got);
    ref.setListener(&want);
    Rng rng(seed);

    // Base pages span 1.5x the two tiers, so a random stream mixes L1
    // hits, L2 hits (promotions) and misses; huge regions sit above
    // them. A wide invalidation or flush comes once per 4 * total
    // steps on average, about one per refill of the TLB, so it runs
    // full much of the time.
    const unsigned total = l1 + l2;
    const Vpn base_pages = total + total / 2 + 2;
    const Vpn huge_first = hugeBaseOf(base_pages) + 4 * kHugePageSpan;
    const Vpn huge_regions = 2 * huge + 1;
    const std::uint64_t wide_odds = 4 * total;
    const int steps = static_cast<int>(std::max(20000u, 100 * total));
    std::size_t max_base = 0;
    std::uint64_t evictions = 0;

    auto pickVpn = [&]() -> Vpn {
        if (rng.nextBounded(8) == 0)
            return huge_first +
                   rng.nextBounded(huge_regions) * kHugePageSpan +
                   rng.nextBounded(kHugePageSpan);
        return rng.nextBounded(base_pages);
    };
    auto pickPcid = [&]() {
        return static_cast<Pcid>(rng.nextBounded(3));
    };
    // Three candidate frames per page: a present page is re-inserted
    // with its own frame (quiet) or remapped to another one.
    auto pickPfn = [&](Vpn vpn) { return 8 * vpn + rng.nextBounded(3); };

    for (int step = 0; step < steps; ++step) {
        const std::uint64_t roll = rng.nextBounded(1000);
        std::string op;
        if (rng.nextBounded(wide_odds) == 0) {
            const Pcid pcid = pickPcid();
            const std::uint64_t kind = rng.nextBounded(4);
            if (kind == 0) {
                op = "invalidateRange(wide)";
                const Vpn start = rng.nextBounded(base_pages);
                const Vpn end = start + rng.nextBounded(base_pages) +
                                total / 2;
                tlb.invalidateRange(start, end, pcid);
                ref.invalidateRange(start, end, pcid);
            } else if (kind == 1) {
                // The whole VPN space: the span wraps to 0.
                op = "invalidateRange(all)";
                tlb.invalidateRange(0, ~Vpn{0}, pcid);
                ref.invalidateRange(0, ~Vpn{0}, pcid);
            } else if (kind == 2) {
                op = "invalidatePcid";
                tlb.invalidatePcid(pcid);
                ref.invalidatePcid(pcid);
            } else {
                op = "flushAll";
                tlb.flushAll();
                ref.flushAll();
            }
        } else if (roll < 450) {
            op = "lookup";
            const Vpn vpn = pickVpn();
            const Pcid pcid = pickPcid();
            Pfn pfn_got = 0, pfn_want = 0;
            bool w_got = false, w_want = false;
            bool h_got = false, h_want = false;
            const TlbResult r_got =
                tlb.lookup(vpn, pcid, &pfn_got, &w_got, &h_got);
            const TlbResult r_want =
                ref.lookup(vpn, pcid, &pfn_want, &w_want, &h_want);
            ASSERT_EQ(r_got, r_want) << op << " step " << step;
            ASSERT_EQ(h_got, h_want) << op << " step " << step;
            if (r_got != TlbResult::Miss) {
                ASSERT_EQ(pfn_got, pfn_want) << op << " step " << step;
                ASSERT_EQ(w_got, w_want) << op << " step " << step;
            } else if (rng.nextBool(0.5) && vpn < base_pages) {
                // The page walk's refill, as the kernel does it.
                const Pfn pfn = pickPfn(vpn);
                tlb.insert(vpn, pfn, pcid, true);
                ref.insert(vpn, pfn, pcid, true);
            }
        } else if (roll < 700) {
            op = "insert";
            const Vpn vpn = rng.nextBounded(base_pages);
            const Pcid pcid = pickPcid();
            const Pfn pfn = pickPfn(vpn);
            const bool writable = rng.nextBool(0.7);
            tlb.insert(vpn, pfn, pcid, writable);
            ref.insert(vpn, pfn, pcid, writable);
        } else if (roll < 750) {
            op = "insertHuge";
            const Vpn vpn = huge_first +
                            rng.nextBounded(huge_regions) * kHugePageSpan +
                            rng.nextBounded(kHugePageSpan);
            const Pcid pcid = pickPcid();
            const Pfn pfn = 1'000'000 + 4 * hugeBaseOf(vpn) +
                            rng.nextBounded(2) * kHugePageSpan;
            const bool writable = rng.nextBool(0.5);
            tlb.insertHuge(vpn, pfn, pcid, writable);
            ref.insertHuge(vpn, pfn, pcid, writable);
        } else if (roll < 830) {
            op = "probe";
            const Vpn vpn = pickVpn();
            const Pcid pcid = pickPcid();
            Pfn a = 0, b = 0;
            ASSERT_EQ(tlb.probe(vpn, pcid), ref.probe(vpn, pcid))
                << op << " step " << step;
            ASSERT_EQ(tlb.probeHuge(vpn, pcid), ref.probeHuge(vpn, pcid))
                << op << " step " << step;
            ASSERT_EQ(tlb.probePfn(vpn, pcid, &a),
                      ref.probePfn(vpn, pcid, &b))
                << op << " step " << step;
            ASSERT_EQ(a, b) << op << " step " << step;
            ASSERT_EQ(tlb.probeHugePfn(vpn, pcid, &a),
                      ref.probeHugePfn(vpn, pcid, &b))
                << op << " step " << step;
            ASSERT_EQ(a, b) << op << " step " << step;
        } else if (roll < 900) {
            op = "invalidatePage";
            const Vpn vpn = pickVpn();
            const Pcid pcid = pickPcid();
            tlb.invalidatePage(vpn, pcid);
            ref.invalidatePage(vpn, pcid);
        } else {
            // Narrow: one to eight pages, below a full tier's
            // occupancy (the per-VPN probe path) unless the tier is
            // nearly empty or tiny.
            op = "invalidateRange(narrow)";
            const Vpn start = pickVpn();
            const Vpn end = start + rng.nextBounded(8);
            const Pcid pcid = pickPcid();
            tlb.invalidateRange(start, end, pcid);
            ref.invalidateRange(start, end, pcid);
        }
        ASSERT_EQ(got.events, want.events) << op << " step " << step;
        ASSERT_EQ(tlb.size(), ref.size()) << op << " step " << step;
        ASSERT_EQ(tlb.hugeSize(), ref.hugeSize()) << op << " step " << step;
        ASSERT_EQ(tlb.l1Hits(), ref.l1Hits()) << op << " step " << step;
        ASSERT_EQ(tlb.l2Hits(), ref.l2Hits()) << op << " step " << step;
        ASSERT_EQ(tlb.misses(), ref.misses()) << op << " step " << step;
        ASSERT_EQ(tlb.flushes(), ref.flushes()) << op << " step " << step;
        if (op == "insert" || op == "lookup")
            evictions += std::count_if(
                want.events.begin(), want.events.end(),
                [](const EventLog::Event &e) { return !e.insert; });
        max_base = std::max(max_base, ref.size() - ref.hugeSize());
        got.events.clear();
        want.events.clear();
    }
    // The stream must have reached the interesting states: both tiers
    // full, L2 promotions, and L2 evictions out of the TLB.
    EXPECT_EQ(max_base, total);
    EXPECT_GT(ref.l2Hits(), 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(ref.flushes(), 0u);
}

TEST_P(TlbDifferential, FillsPastEveryIndexDoublingThenFlushesAndRefills)
{
    const auto [l1, l2, huge, seed] = GetParam();
    Tlb tlb(3, l1, l2, huge);
    RefTlb ref(3, l1, l2, huge);
    EventLog got;
    EventLog want;
    tlb.setListener(&got);
    ref.setListener(&want);
    Rng rng(seed);
    const unsigned total = l1 + l2;
    const Vpn huge_first = hugeBaseOf(4 * total) + kHugePageSpan;
    // Every index size each array passes through, in order.
    std::vector<std::size_t> sizes{tlb.indexCells()};
    std::vector<std::size_t> huge_sizes{tlb.hugeIndexCells()};

    auto same = [&](const char *op, unsigned at) {
        ASSERT_EQ(got.events, want.events) << op << " " << at;
        ASSERT_EQ(tlb.size(), ref.size()) << op << " " << at;
        ASSERT_EQ(tlb.hugeSize(), ref.hugeSize()) << op << " " << at;
        ASSERT_EQ(tlb.l1Hits(), ref.l1Hits()) << op << " " << at;
        ASSERT_EQ(tlb.l2Hits(), ref.l2Hits()) << op << " " << at;
        ASSERT_EQ(tlb.misses(), ref.misses()) << op << " " << at;
        ASSERT_EQ(tlb.flushes(), ref.flushes()) << op << " " << at;
        got.events.clear();
        want.events.clear();
    };
    auto lookupBoth = [&](Vpn vpn, Pcid pcid, const char *op) {
        Pfn a = 0, b = 0;
        bool w_a = false, w_b = false, h_a = false, h_b = false;
        ASSERT_EQ(tlb.lookup(vpn, pcid, &a, &w_a, &h_a),
                  ref.lookup(vpn, pcid, &b, &w_b, &h_b))
            << op << " lookup " << vpn;
        ASSERT_EQ(a, b) << op << " lookup " << vpn;
        ASSERT_EQ(w_a, w_b) << op << " lookup " << vpn;
        ASSERT_EQ(h_a, h_b) << op << " lookup " << vpn;
    };
    auto pcidOf = [](Vpn vpn) { return static_cast<Pcid>(1 + vpn % 2); };
    // One key at a time: pages 0.. over two PCIDs, with an occasional
    // lookup of an older page (an L2 promotion once L1 is full), then
    // the huge regions. @p extra keys past capacity evict.
    auto fill = [&](unsigned round, unsigned extra) {
        for (Vpn vpn = 0; vpn < total + extra; ++vpn) {
            tlb.insert(vpn, 8 * vpn + round, pcidOf(vpn), true);
            ref.insert(vpn, 8 * vpn + round, pcidOf(vpn), true);
            if (tlb.indexCells() != sizes.back())
                sizes.push_back(tlb.indexCells());
            if (rng.nextBounded(4) == 0) {
                const Vpn old = rng.nextBounded(vpn + 1);
                ASSERT_NO_FATAL_FAILURE(lookupBoth(old, pcidOf(old), "fill"));
            }
            ASSERT_NO_FATAL_FAILURE(same("fill", vpn));
        }
        for (unsigned n = 0; n < huge + extra; ++n) {
            const Vpn base = huge_first + n * kHugePageSpan;
            tlb.insertHuge(base, 1'000'000 + base + round, n % 2, true);
            ref.insertHuge(base, 1'000'000 + base + round, n % 2, true);
            if (tlb.hugeIndexCells() != huge_sizes.back())
                huge_sizes.push_back(tlb.hugeIndexCells());
            ASSERT_NO_FATAL_FAILURE(same("fillHuge", n));
        }
    };
    // Every key the fills use: an entry the index lost (say, in a
    // rehash) shows up as a miss where the reference hits.
    auto lookupAll = [&](const char *phase) {
        for (Vpn vpn = 0; vpn < total + 8; ++vpn)
            ASSERT_NO_FATAL_FAILURE(lookupBoth(vpn, pcidOf(vpn), phase));
        for (unsigned n = 0; n < huge + 8; ++n) {
            const Vpn vpn = huge_first + n * kHugePageSpan + 3;
            ASSERT_EQ(tlb.probeHuge(vpn, n % 2), ref.probeHuge(vpn, n % 2))
                << phase << " probeHuge " << n;
        }
        ASSERT_NO_FATAL_FAILURE(same(phase, 0));
    };

    // Up to full capacity: each array's index passes every doubling
    // from its starting size to its full size, once.
    ASSERT_NO_FATAL_FAILURE(fill(0, 0));
    for (std::size_t i = 1; i < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], 2 * sizes[i - 1]);
    for (std::size_t i = 1; i < huge_sizes.size(); ++i)
        EXPECT_EQ(huge_sizes[i], 2 * huge_sizes[i - 1]);
    EXPECT_EQ(sizes.back(), expectedIndexCells(total, total));
    EXPECT_EQ(huge_sizes.back(), expectedIndexCells(huge, huge));
    if (total > Tlb::kMinIndexCells / 2) { // the paper's shapes
        EXPECT_GT(sizes.size(), 6u);
    }
    if (huge > Tlb::kMinIndexCells / 2) {
        EXPECT_GT(huge_sizes.size(), 1u);
    }
    EXPECT_EQ(ref.size(), total + huge);
    ASSERT_NO_FATAL_FAILURE(lookupAll("full"));

    // Past capacity, then everything out and back in.
    ASSERT_NO_FATAL_FAILURE(fill(1, 8));
    ASSERT_NO_FATAL_FAILURE(lookupAll("overfull"));
    tlb.flushAll();
    ref.flushAll();
    ASSERT_NO_FATAL_FAILURE(same("flushAll", 0));
    EXPECT_EQ(tlb.size(), 0u);
    ASSERT_NO_FATAL_FAILURE(lookupAll("flushed"));
    ASSERT_NO_FATAL_FAILURE(fill(2, 0));
    ASSERT_NO_FATAL_FAILURE(lookupAll("refilled"));
    tlb.invalidatePcid(1);
    ref.invalidatePcid(1);
    ASSERT_NO_FATAL_FAILURE(same("invalidatePcid", 1));
    ASSERT_NO_FATAL_FAILURE(lookupAll("pcid 1 gone"));
    ASSERT_NO_FATAL_FAILURE(fill(3, 3));
    ASSERT_NO_FATAL_FAILURE(lookupAll("refilled again"));
    // Refills reuse released slots and the grown index.
    EXPECT_EQ(tlb.slotsTouched(), total + huge);
    EXPECT_EQ(tlb.indexCells(), expectedIndexCells(total, total));
    EXPECT_EQ(tlb.hugeIndexCells(), expectedIndexCells(huge, huge));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TlbDifferential,
    ::testing::Values(DiffParam{64, 1024, 32, 1},
                      DiffParam{64, 1024, 32, 2},
                      DiffParam{64, 512, 32, 3},
                      DiffParam{64, 512, 32, 4},
                      DiffParam{2, 3, 1, 5}, DiffParam{2, 3, 1, 6},
                      DiffParam{2, 3, 1, 7}));

} // namespace
} // namespace latr
