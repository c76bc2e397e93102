// Unit tests for the LLC model.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "hw/cache.hh"
#include "sim/rng.hh"
#include "sim/zeroed_array.hh"

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

// --- Differential test: the first-touch row layout against the
// --- fixed row-per-set layout it replaced, access for access.

/**
 * The reference: LlcCache as it was when set s owned row s of the
 * line array, kept verbatim apart from reporting each miss's victim
 * (so evictions can be compared) and dropping what the test does
 * not read.
 */
class RefLlc
{
  public:
    RefLlc(std::uint64_t size_bytes, unsigned ways, unsigned line_bytes)
        : ways_(ways),
          sets_(static_cast<unsigned>(size_bytes / line_bytes / ways)),
          lines_(static_cast<std::size_t>(sets_) * ways_)
    {}

    /**
     * @param evicted set to the line a miss displaced, untouched on a
     *        hit or when the fill took an invalid way.
     * @return true on hit.
     */
    bool
    access(std::uint64_t line_addr, CacheAccessOrigin origin,
           bool *evicted_valid, std::uint64_t *evicted)
    {
        *evicted_valid = false;
        const unsigned set = setOf(line_addr);
        Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
        ++useClock_;

        // Hits are partition-agnostic; only fills honor the CAT mask.
        for (unsigned w = 0; w < ways_; ++w) {
            Line &line = base[w];
            if (line.valid() && line.tag == line_addr) {
                line.lastUse = useClock_;
                ++hits_[static_cast<int>(origin)];
                return true;
            }
        }

        // Victim selection within the origin's way partition.
        unsigned first = 0;
        unsigned last = ways_; // exclusive
        if (latrWays_ > 0 && latrWays_ < ways_) {
            if (origin == CacheAccessOrigin::LatrSweep)
                last = latrWays_;
            else
                first = latrWays_;
        }
        Line *lru = &base[first];
        for (unsigned w = first; w < last; ++w) {
            Line &line = base[w];
            if (!line.valid()) {
                lru = &line;
                break;
            }
            if (lru->valid() && line.lastUse < lru->lastUse)
                lru = &line;
        }

        ++misses_[static_cast<int>(origin)];
        if (lru->valid()) {
            *evicted_valid = true;
            *evicted = lru->tag;
        }
        lru->tag = line_addr;
        lru->lastUse = useClock_;
        return false;
    }

    bool
    probe(std::uint64_t line_addr) const
    {
        const unsigned set = setOf(line_addr);
        const Line *base =
            &lines_[static_cast<std::size_t>(set) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].valid() && base[w].tag == line_addr)
                return true;
        return false;
    }

    void setLatrReservedWays(unsigned ways) { latrWays_ = ways; }

    unsigned sets() const { return sets_; }

    std::uint64_t
    hits(CacheAccessOrigin origin) const
    {
        return hits_[static_cast<int>(origin)];
    }

    std::uint64_t
    misses(CacheAccessOrigin origin) const
    {
        return misses_[static_cast<int>(origin)];
    }

    double
    appMissRatio() const
    {
        const std::uint64_t h = hits_[0];
        const std::uint64_t m = misses_[0];
        if (h + m == 0)
            return 0.0;
        return static_cast<double>(m) / static_cast<double>(h + m);
    }

  private:
    struct Line
    {
        std::uint64_t tag;
        std::uint64_t lastUse;

        bool valid() const { return lastUse != 0; }
    };

    unsigned
    setOf(std::uint64_t line_addr) const
    {
        return static_cast<unsigned>(
            (line_addr * 0x9e3779b97f4a7c15ULL >> 32) % sets_);
    }

    unsigned ways_;
    unsigned latrWays_ = 0;
    unsigned sets_;
    std::uint64_t useClock_ = 0;
    ZeroedArray<Line> lines_; // sets_ * ways_, row-major by set

    std::uint64_t hits_[3] = {0, 0, 0};
    std::uint64_t misses_[3] = {0, 0, 0};
};

constexpr CacheAccessOrigin kOrigins[] = {CacheAccessOrigin::App,
                                          CacheAccessOrigin::Interrupt,
                                          CacheAccessOrigin::LatrSweep};

/**
 * A seeded pool of distinct line addresses: @p count of them, drawn
 * from the full 64-bit range (line 0 included) so the set hash, not
 * address order, spreads them.
 */
std::vector<std::uint64_t>
linePool(Rng &rng, std::size_t count)
{
    std::vector<std::uint64_t> pool;
    pool.reserve(count + 1);
    pool.push_back(0);
    while (pool.size() < count)
        pool.push_back(rng.next());
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    return pool;
}

/** (size bytes, ways, CAT-reserved ways, whole-cache working set, seed). */
using LlcDiffParam =
    std::tuple<std::uint64_t, unsigned, unsigned, bool, std::uint64_t>;

class LlcDifferential : public ::testing::TestWithParam<LlcDiffParam>
{
};

TEST_P(LlcDifferential, MatchesRowPerSetLayoutAccessForAccess)
{
    const auto [size, ways, cat, whole, seed] = GetParam();
    LlcCache llc(size, ways, 64);
    RefLlc ref(size, ways, 64);
    ASSERT_EQ(llc.sets(), ref.sets());
    if (cat > 0) {
        llc.setLatrReservedWays(cat);
        ref.setLatrReservedWays(cat);
    }
    Rng rng(seed);

    // A sparse working set touches a few hundred sets, as a serving
    // or bigbox machine does; a whole-cache one spans 1.5x the
    // capacity, so every set fills and evicts.
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(llc.sets()) * ways;
    const std::vector<std::uint64_t> pool =
        linePool(rng, whole ? capacity + capacity / 2 : 400);
    const std::uint64_t steps =
        std::max<std::uint64_t>(20000, 2 * pool.size());
    std::uint64_t evictions = 0;

    for (std::uint64_t step = 0; step < steps; ++step) {
        const std::uint64_t line = pool[rng.nextBounded(pool.size())];
        const CacheAccessOrigin origin = kOrigins[rng.nextBounded(3)];
        bool evicted_valid = false;
        std::uint64_t evicted = 0;
        const bool want = ref.access(line, origin, &evicted_valid, &evicted);
        ASSERT_EQ(llc.access(line, origin), want) << "step " << step;
        // The victim the reference chose is gone here too.
        if (evicted_valid) {
            ++evictions;
            ASSERT_FALSE(llc.probe(evicted)) << "step " << step;
        }
        // A probe sample: pool lines, and an address never accessed.
        for (int i = 0; i < 2; ++i) {
            const std::uint64_t p = pool[rng.nextBounded(pool.size())];
            ASSERT_EQ(llc.probe(p), ref.probe(p)) << "step " << step;
        }
        const std::uint64_t stranger = rng.next();
        ASSERT_EQ(llc.probe(stranger), ref.probe(stranger))
            << "step " << step;
    }

    for (CacheAccessOrigin origin : kOrigins) {
        EXPECT_EQ(llc.hits(origin), ref.hits(origin));
        EXPECT_EQ(llc.misses(origin), ref.misses(origin));
    }
    EXPECT_EQ(llc.appMissRatio(), ref.appMissRatio());
    for (std::uint64_t line : pool)
        ASSERT_EQ(llc.probe(line), ref.probe(line)) << line;
    // The whole-cache stream must have reached full sets.
    if (whole) {
        EXPECT_GT(evictions, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LlcDifferential,
    ::testing::Values(
        // The differential-check preset: 1 MiB, 20 ways, 819 sets.
        LlcDiffParam{1 << 20, 20, 0, false, 1},
        LlcDiffParam{1 << 20, 20, 0, true, 2},
        LlcDiffParam{1 << 20, 20, 2, false, 3},
        LlcDiffParam{1 << 20, 20, 2, true, 4},
        // The 8-socket preset: 30 MiB, 20 ways, 24,576 sets.
        LlcDiffParam{30u << 20, 20, 0, false, 5},
        LlcDiffParam{30u << 20, 20, 0, true, 6},
        LlcDiffParam{30u << 20, 20, 2, false, 7},
        LlcDiffParam{30u << 20, 20, 2, true, 8},
        // A tiny odd geometry: 7 sets of 4 ways.
        LlcDiffParam{7 * 4 * 64, 4, 0, true, 9},
        LlcDiffParam{7 * 4 * 64, 4, 1, true, 10}));

TEST(LlcFresh, ProbingUntouchedSetsChangesNothing)
{
    // Probes of sets no access has reached must not give those sets
    // rows: a probed cache then runs a stream exactly as a fresh one.
    LlcCache probed(1 << 20, 20, 64);
    LlcCache fresh(1 << 20, 20, 64);
    RefLlc ref(1 << 20, 20, 64);
    Rng rng(11);
    for (int i = 0; i < 100000; ++i)
        EXPECT_FALSE(probed.probe(rng.next()));

    const std::vector<std::uint64_t> pool =
        linePool(rng, 819 * 20 + 819 * 10);
    std::uint64_t evictions = 0;
    for (int step = 0; step < 100000; ++step) {
        const std::uint64_t line = pool[rng.nextBounded(pool.size())];
        const CacheAccessOrigin origin = kOrigins[rng.nextBounded(3)];
        bool evicted_valid = false;
        std::uint64_t evicted = 0;
        const bool want = ref.access(line, origin, &evicted_valid, &evicted);
        ASSERT_EQ(fresh.access(line, origin), want) << "step " << step;
        ASSERT_EQ(probed.access(line, origin), want) << "step " << step;
        if (evicted_valid) {
            ++evictions;
            ASSERT_FALSE(fresh.probe(evicted)) << "step " << step;
            ASSERT_FALSE(probed.probe(evicted)) << "step " << step;
        }
    }
    for (CacheAccessOrigin origin : kOrigins) {
        EXPECT_EQ(probed.hits(origin), fresh.hits(origin));
        EXPECT_EQ(probed.misses(origin), fresh.misses(origin));
    }
    EXPECT_GT(evictions, 0u);
    for (std::uint64_t line : pool)
        ASSERT_EQ(probed.probe(line), fresh.probe(line)) << line;
}

TEST(LlcCatDeath, ReservingEveryWayIsFatal)
{
    LlcCache llc(8 * 64, 8, 64);
    EXPECT_DEATH(llc.setLatrReservedWays(8), "leave ways");
}

} // namespace
} // namespace latr
