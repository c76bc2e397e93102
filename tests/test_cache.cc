// Unit tests for the LLC model.

#include <gtest/gtest.h>

#include "hw/cache.hh"

namespace latr
{
namespace
{

TEST(Llc, MissThenHit)
{
    LlcCache llc(64 * 1024, 4, 64);
    EXPECT_FALSE(llc.access(1, CacheAccessOrigin::App));
    EXPECT_TRUE(llc.access(1, CacheAccessOrigin::App));
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 1u);
    EXPECT_EQ(llc.hits(CacheAccessOrigin::App), 1u);
}

TEST(Llc, GeometryDerivedFromSize)
{
    LlcCache llc(64 * 1024, 4, 64);
    EXPECT_EQ(llc.lineBytes(), 64u);
    EXPECT_EQ(llc.ways(), 4u);
    EXPECT_EQ(llc.sets(), 64u * 1024 / 64 / 4);
}

TEST(Llc, ProbeHasNoSideEffects)
{
    LlcCache llc(64 * 1024, 4, 64);
    EXPECT_FALSE(llc.probe(42));
    llc.access(42, CacheAccessOrigin::App);
    EXPECT_TRUE(llc.probe(42));
    EXPECT_EQ(llc.hits(CacheAccessOrigin::App), 0u);
}

TEST(Llc, OriginsTrackedSeparately)
{
    LlcCache llc(64 * 1024, 4, 64);
    llc.access(1, CacheAccessOrigin::App);
    llc.access(2, CacheAccessOrigin::Interrupt);
    llc.access(2, CacheAccessOrigin::Interrupt);
    llc.access(3, CacheAccessOrigin::LatrSweep);
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 1u);
    EXPECT_EQ(llc.misses(CacheAccessOrigin::Interrupt), 1u);
    EXPECT_EQ(llc.hits(CacheAccessOrigin::Interrupt), 1u);
    EXPECT_EQ(llc.misses(CacheAccessOrigin::LatrSweep), 1u);
}

TEST(Llc, AppMissRatio)
{
    LlcCache llc(64 * 1024, 4, 64);
    llc.access(1, CacheAccessOrigin::App);  // miss
    llc.access(1, CacheAccessOrigin::App);  // hit
    llc.access(1, CacheAccessOrigin::App);  // hit
    llc.access(1, CacheAccessOrigin::App);  // hit
    EXPECT_DOUBLE_EQ(llc.appMissRatio(), 0.25);
}

TEST(Llc, InterruptTrafficEvictsAppLines)
{
    // A tiny cache so pollution is easy to force.
    LlcCache llc(4 * 64, 4, 64); // one set, 4 ways
    for (std::uint64_t l = 0; l < 4; ++l)
        llc.access(l, CacheAccessOrigin::App);
    // All four resident.
    for (std::uint64_t l = 0; l < 4; ++l)
        EXPECT_TRUE(llc.probe(l));
    // Four interrupt lines push them all out.
    for (std::uint64_t l = 100; l < 104; ++l)
        llc.access(l, CacheAccessOrigin::Interrupt);
    int resident = 0;
    for (std::uint64_t l = 0; l < 4; ++l)
        resident += llc.probe(l) ? 1 : 0;
    EXPECT_EQ(resident, 0);
}

TEST(Llc, LruEvictsOldestWithinSet)
{
    LlcCache llc(4 * 64, 4, 64); // one set
    for (std::uint64_t l = 0; l < 4; ++l)
        llc.access(l, CacheAccessOrigin::App);
    llc.access(0, CacheAccessOrigin::App); // refresh line 0
    llc.access(50, CacheAccessOrigin::App); // evicts line 1 (LRU)
    EXPECT_TRUE(llc.probe(0));
    EXPECT_FALSE(llc.probe(1));
}

TEST(Llc, ResetStatsKeepsContents)
{
    LlcCache llc(64 * 1024, 4, 64);
    llc.access(7, CacheAccessOrigin::App);
    llc.resetStats();
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 0u);
    EXPECT_TRUE(llc.probe(7)); // contents survive
    EXPECT_TRUE(llc.access(7, CacheAccessOrigin::App));
}

TEST(Llc, WorkingSetLargerThanCacheMissesOften)
{
    LlcCache llc(64 * 1024, 16, 64); // 1024 lines
    // Stream over 4096 distinct lines twice: mostly misses.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t l = 0; l < 4096; ++l)
            llc.access(l, CacheAccessOrigin::App);
    EXPECT_GT(llc.appMissRatio(), 0.7);
}

TEST(Llc, WorkingSetSmallerThanCacheHitsAfterWarmup)
{
    LlcCache llc(64 * 1024, 16, 64); // 1024 lines
    for (int pass = 0; pass < 10; ++pass)
        for (std::uint64_t l = 0; l < 256; ++l)
            llc.access(l, CacheAccessOrigin::App);
    EXPECT_LT(llc.appMissRatio(), 0.2);
}

TEST(LlcCat, ReservedWaysProtectAppLinesFromSweepFills)
{
    LlcCache llc(8 * 64, 8, 64); // one set, 8 ways
    llc.setLatrReservedWays(2);
    // Fill the app partition (6 ways).
    for (std::uint64_t l = 0; l < 6; ++l)
        llc.access(l, CacheAccessOrigin::App);
    // A storm of sweep fills cannot displace them: sweeps own only
    // the 2 reserved ways.
    for (std::uint64_t l = 100; l < 140; ++l)
        llc.access(l, CacheAccessOrigin::LatrSweep);
    for (std::uint64_t l = 0; l < 6; ++l)
        EXPECT_TRUE(llc.probe(l)) << l;
}

TEST(LlcCat, AppFillsStayOutOfTheReservedWays)
{
    LlcCache llc(8 * 64, 8, 64);
    llc.setLatrReservedWays(2);
    llc.access(500, CacheAccessOrigin::LatrSweep); // resident, way 0-1
    // App thrashing cannot evict the sweep-owned line.
    for (std::uint64_t l = 0; l < 50; ++l)
        llc.access(l, CacheAccessOrigin::App);
    EXPECT_TRUE(llc.probe(500));
}

TEST(LlcCat, HitsAreUnaffectedByPartitioning)
{
    LlcCache llc(8 * 64, 8, 64);
    llc.access(7, CacheAccessOrigin::App);
    llc.setLatrReservedWays(4);
    // A hit finds the line regardless of which partition it is in.
    EXPECT_TRUE(llc.access(7, CacheAccessOrigin::LatrSweep));
}

TEST(LlcFresh, NothingIsResidentInAFreshCache)
{
    // An all-zero line is invalid: not even line 0 (whose tag equals
    // the zero fill) may hit before it has been filled.
    LlcCache llc(64 * 1024, 4, 64);
    for (std::uint64_t l = 0; l < 4096; ++l)
        EXPECT_FALSE(llc.probe(l)) << l;
    EXPECT_FALSE(llc.probe(~0ULL));
    EXPECT_FALSE(llc.access(0, CacheAccessOrigin::App));
    EXPECT_TRUE(llc.probe(0));
    EXPECT_TRUE(llc.access(0, CacheAccessOrigin::App));
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 1u);
    EXPECT_EQ(llc.hits(CacheAccessOrigin::App), 1u);
}

TEST(LlcFresh, FirstFillsHonourTheCatPartition)
{
    LlcCache llc(8 * 64, 8, 64); // one set, 8 ways
    llc.setLatrReservedWays(2);
    // Into a fresh set: two sweep fills take the reserved ways, six
    // app fills the rest, and nothing is evicted.
    EXPECT_FALSE(llc.access(0, CacheAccessOrigin::LatrSweep));
    EXPECT_FALSE(llc.access(1, CacheAccessOrigin::LatrSweep));
    for (std::uint64_t l = 10; l < 16; ++l)
        EXPECT_FALSE(llc.access(l, CacheAccessOrigin::App));
    for (std::uint64_t l : {0, 1, 10, 11, 12, 13, 14, 15})
        EXPECT_TRUE(llc.probe(l)) << l;
    // A seventh app line evicts the LRU app line, not a sweep line.
    llc.access(16, CacheAccessOrigin::App);
    EXPECT_FALSE(llc.probe(10));
    EXPECT_TRUE(llc.probe(0));
    EXPECT_TRUE(llc.probe(1));
    // A third sweep line evicts the LRU sweep line, not an app line.
    llc.access(2, CacheAccessOrigin::LatrSweep);
    EXPECT_FALSE(llc.probe(0));
    for (std::uint64_t l = 11; l < 17; ++l)
        EXPECT_TRUE(llc.probe(l)) << l;
}

TEST(LlcCatDeath, ReservingEveryWayIsFatal)
{
    LlcCache llc(8 * 64, 8, 64);
    EXPECT_DEATH(llc.setLatrReservedWays(8), "leave ways");
}

} // namespace
} // namespace latr
