// Unit tests for the physical frame allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "mem/frame_allocator.hh"
#include "sim/rng.hh"

namespace latr
{
namespace
{

class CountingListener : public FrameListener
{
  public:
    void onFrameAlloc(Pfn) override { ++allocs; }
    void onFrameFree(Pfn) override { ++frees; }

    int allocs = 0;
    int frees = 0;
};

TEST(FrameAllocator, AllocPrefersRequestedNode)
{
    FrameAllocator fa(2, 100);
    Pfn a = fa.alloc(0);
    Pfn b = fa.alloc(1);
    EXPECT_EQ(fa.nodeOf(a), 0u);
    EXPECT_EQ(fa.nodeOf(b), 1u);
}

TEST(FrameAllocator, AllocStartsWithRefcountOne)
{
    FrameAllocator fa(1, 10);
    Pfn a = fa.alloc(0);
    EXPECT_EQ(fa.refcount(a), 1u);
    EXPECT_EQ(fa.allocatedFrames(), 1u);
}

TEST(FrameAllocator, PutReturnsFrameToPool)
{
    FrameAllocator fa(1, 10);
    Pfn a = fa.alloc(0);
    EXPECT_EQ(fa.freeFrames(0), 9u);
    fa.put(a);
    EXPECT_EQ(fa.freeFrames(0), 10u);
    EXPECT_EQ(fa.refcount(a), 0u);
    EXPECT_EQ(fa.allocatedFrames(), 0u);
}

TEST(FrameAllocator, GetPutRefcounting)
{
    FrameAllocator fa(1, 10);
    Pfn a = fa.alloc(0);
    fa.get(a);
    fa.get(a);
    EXPECT_EQ(fa.refcount(a), 3u);
    fa.put(a);
    fa.put(a);
    EXPECT_EQ(fa.refcount(a), 1u);
    EXPECT_EQ(fa.freeFrames(0), 9u); // still allocated
    fa.put(a);
    EXPECT_EQ(fa.freeFrames(0), 10u);
}

TEST(FrameAllocator, FallsBackToOtherNodesWhenExhausted)
{
    FrameAllocator fa(2, 2);
    fa.alloc(0);
    fa.alloc(0);
    Pfn c = fa.alloc(0); // node 0 empty; falls back to node 1
    EXPECT_NE(c, kPfnInvalid);
    EXPECT_EQ(fa.nodeOf(c), 1u);
}

TEST(FrameAllocator, ReturnsInvalidWhenFullyExhausted)
{
    FrameAllocator fa(2, 1);
    EXPECT_NE(fa.alloc(0), kPfnInvalid);
    EXPECT_NE(fa.alloc(0), kPfnInvalid);
    EXPECT_EQ(fa.alloc(0), kPfnInvalid);
}

TEST(FrameAllocator, FramesAreUniqueWhileHeld)
{
    FrameAllocator fa(2, 50);
    std::set<Pfn> seen;
    for (int i = 0; i < 100; ++i) {
        Pfn p = fa.alloc(i % 2);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate frame " << p;
    }
}

TEST(FrameAllocator, FreedFrameIsReusable)
{
    FrameAllocator fa(1, 1);
    Pfn a = fa.alloc(0);
    fa.put(a);
    Pfn b = fa.alloc(0);
    EXPECT_EQ(a, b);
}

TEST(FrameAllocator, ListenerSeesLifecycle)
{
    FrameAllocator fa(1, 10);
    CountingListener listener;
    fa.setListener(&listener);
    Pfn a = fa.alloc(0);
    fa.get(a);
    fa.put(a); // refcount 1: no free event
    EXPECT_EQ(listener.allocs, 1);
    EXPECT_EQ(listener.frees, 0);
    fa.put(a);
    EXPECT_EQ(listener.frees, 1);
}

TEST(FrameAllocator, NodeOfPartitionsTheSpace)
{
    FrameAllocator fa(4, 100);
    EXPECT_EQ(fa.nodeOf(0), 0u);
    EXPECT_EQ(fa.nodeOf(99), 0u);
    EXPECT_EQ(fa.nodeOf(100), 1u);
    EXPECT_EQ(fa.nodeOf(399), 3u);
}

TEST(FrameAllocatorDeath, PutOnFreeFramePanics)
{
    FrameAllocator fa(1, 4);
    Pfn a = fa.alloc(0);
    fa.put(a);
    EXPECT_DEATH(fa.put(a), "free frame");
}

TEST(FrameAllocatorDeath, GetOnFreeFramePanics)
{
    FrameAllocator fa(1, 4);
    EXPECT_DEATH(fa.get(0), "free frame");
}

TEST(FrameAllocatorDeath, OutOfRangePfnPanics)
{
    FrameAllocator fa(1, 4);
    EXPECT_DEATH(fa.refcount(100), "out of range");
}

/**
 * The reference model: the allocator as a plain per-node LIFO vector
 * built eagerly at construction (high frames pushed first), with
 * allocLowest() as min_element plus swap-with-back and allocHuge()
 * as a frame scan plus remove_if. The real allocator must hand out
 * exactly the same frames in exactly the same order.
 */
class ReferenceAllocator
{
  public:
    ReferenceAllocator(unsigned nodes, std::uint64_t frames_per_node)
        : nodes_(nodes), framesPerNode_(frames_per_node),
          freeLists_(nodes),
          refcounts_(static_cast<std::size_t>(nodes) * frames_per_node),
          fresh_(refcounts_.size(), true)
    {
        for (unsigned n = 0; n < nodes; ++n) {
            const Pfn base = static_cast<Pfn>(n) * frames_per_node;
            for (std::uint64_t i = frames_per_node; i-- > 0;)
                freeLists_[n].push_back(base + i);
        }
    }

    Pfn
    alloc(NodeId node)
    {
        for (unsigned i = 0; i < nodes_; ++i) {
            auto &list = freeLists_[(node + i) % nodes_];
            if (list.empty())
                continue;
            const Pfn pfn = list.back();
            list.pop_back();
            take(pfn);
            return pfn;
        }
        return kPfnInvalid;
    }

    Pfn
    allocLowest(NodeId node)
    {
        auto &list = freeLists_[node];
        if (list.empty())
            return kPfnInvalid;
        auto it = std::min_element(list.begin(), list.end());
        const Pfn pfn = *it;
        // The subtle case: a fresh minimum while released frames sit
        // above it, so the swap moves the top released frame down.
        if (fresh_[pfn] &&
            std::any_of(list.begin(), list.end(),
                        [&](Pfn f) { return !fresh_[f]; }))
            ++freshLowestUnderFreed;
        *it = list.back();
        list.pop_back();
        take(pfn);
        return pfn;
    }

    Pfn
    allocHuge(NodeId node)
    {
        const Pfn node_base = static_cast<Pfn>(node) * framesPerNode_;
        const Pfn node_end = node_base + framesPerNode_;
        for (Pfn base = node_base; base + kHugePageSpan <= node_end;
             base += kHugePageSpan) {
            bool free_run = true;
            for (Pfn f = base; f < base + kHugePageSpan; ++f)
                free_run = free_run && refcounts_[f] == 0;
            if (!free_run)
                continue;
            auto &list = freeLists_[node];
            list.erase(std::remove_if(list.begin(), list.end(),
                                      [&](Pfn f) {
                                          return f >= base &&
                                                 f < base +
                                                         kHugePageSpan;
                                      }),
                       list.end());
            for (Pfn f = base; f < base + kHugePageSpan; ++f)
                take(f);
            return base;
        }
        return kPfnInvalid;
    }

    void
    putHuge(Pfn base)
    {
        for (Pfn f = base; f < base + kHugePageSpan; ++f)
            put(f);
    }

    void get(Pfn pfn) { ++refcounts_[pfn]; }

    void
    put(Pfn pfn)
    {
        if (--refcounts_[pfn] == 0) {
            --allocated_;
            freeLists_[pfn / framesPerNode_].push_back(pfn);
        }
    }

    std::uint32_t refcount(Pfn pfn) const { return refcounts_[pfn]; }
    std::uint64_t freeFrames(NodeId n) const
    {
        return freeLists_[n].size();
    }
    std::uint64_t allocatedFrames() const { return allocated_; }

    /** allocLowest() calls that hit the subtle case above. */
    int freshLowestUnderFreed = 0;

  private:
    void
    take(Pfn pfn)
    {
        refcounts_[pfn] = 1;
        fresh_[pfn] = false;
        ++allocated_;
    }

    unsigned nodes_;
    std::uint64_t framesPerNode_;
    std::vector<std::vector<Pfn>> freeLists_;
    std::vector<std::uint32_t> refcounts_;
    std::vector<bool> fresh_;
    std::uint64_t allocated_ = 0;
};

TEST(FrameAllocatorOrder, LowestFreshUnderFreedMovesTopToBottom)
{
    // Notional list after putHuge(512): [511..1, 512, ..., 1023].
    // allocLowest() takes 1 and swaps 1023 into its place, the
    // bottom of the released frames: [511..2, 1023, 512, ..., 1022].
    FrameAllocator fa(1, 1024);
    EXPECT_EQ(fa.alloc(0), 0u);
    ASSERT_EQ(fa.allocHuge(0), 512u);
    fa.putHuge(512);
    EXPECT_EQ(fa.allocLowest(0), 1u);
    for (Pfn expect = 1022; expect >= 512; --expect)
        ASSERT_EQ(fa.alloc(0), expect);
    EXPECT_EQ(fa.alloc(0), 1023u);
    EXPECT_EQ(fa.alloc(0), 2u);
    EXPECT_EQ(fa.freeFrames(0), 1024u - 515u);
}

TEST(FrameAllocatorOrder, HugeClaimMovesTheFreshCursorPastIt)
{
    FrameAllocator fa(1, 2048);
    EXPECT_EQ(fa.alloc(0), 0u);
    fa.put(0); // block 0 is free again, cursor inside it
    ASSERT_EQ(fa.allocHuge(0), 0u);
    ASSERT_EQ(fa.allocHuge(0), 512u);
    EXPECT_EQ(fa.alloc(0), 1024u);
    fa.putHuge(0); // released, bottom to top: 0 ... 511
    EXPECT_EQ(fa.alloc(0), 511u);
    EXPECT_EQ(fa.allocLowest(0), 0u);
    EXPECT_EQ(fa.freeFrames(0), 2048u - 512u - 3u);
}

TEST(FrameAllocatorOrder, LowestFreedTakesTheTopsPlace)
{
    FrameAllocator fa(1, 16);
    for (Pfn p = 0; p < 6; ++p)
        ASSERT_EQ(fa.alloc(0), p);
    fa.put(4);
    fa.put(1);
    fa.put(5); // released, bottom to top: 4 1 5
    EXPECT_EQ(fa.allocLowest(0), 1u); // 5 takes 1's place: 4 5
    EXPECT_EQ(fa.alloc(0), 5u);
    EXPECT_EQ(fa.alloc(0), 4u);
    EXPECT_EQ(fa.alloc(0), 6u);
}

/**
 * (nodes, frames per node, seed). putHuge() needs globally aligned
 * bases, so multi-node shapes either keep nodes block-aligned or are
 * too small for a huge frame; one node covers a partial tail block.
 */
using OrderParam = std::tuple<unsigned, std::uint64_t, std::uint64_t>;

class AllocatorDifferential : public ::testing::TestWithParam<OrderParam>
{
};

TEST_P(AllocatorDifferential, MatchesVectorAllocatorStepForStep)
{
    const auto [nodes, per_node, seed] = GetParam();
    FrameAllocator fa(nodes, per_node);
    ReferenceAllocator ref(nodes, per_node);
    Rng rng(seed);
    std::vector<Pfn> refs;  // one entry per reference held
    std::vector<Pfn> huges; // huge bases held
    const std::uint64_t total = nodes * per_node;
    int exhausted = 0;
    int fallbacks = 0;

    auto expectSame = [&](const char *op, int step) {
        ASSERT_EQ(fa.allocatedFrames(), ref.allocatedFrames())
            << op << " step " << step;
        for (NodeId n = 0; n < nodes; ++n)
            ASSERT_EQ(fa.freeFrames(n), ref.freeFrames(n))
                << op << " step " << step << " node " << n;
        const Pfn probe = rng.nextBounded(total);
        ASSERT_EQ(fa.refcount(probe), ref.refcount(probe))
            << op << " step " << step << " pfn " << probe;
    };
    auto takeRandom = [&](std::vector<Pfn> &v) {
        const std::size_t i = rng.nextBounded(v.size());
        const Pfn p = v[i];
        v[i] = v.back();
        v.pop_back();
        return p;
    };

    // Alternate fill-biased and drain-biased phases, each long enough
    // to exhaust every node (and so force cross-node fallback). Odd
    // seeds start draining: near-empty nodes with fresh frames left
    // are where huge claims overtake the fresh cursor.
    const int phase_len = static_cast<int>(total + total / 2);
    for (int step = 0; step < 6 * phase_len; ++step) {
        const bool filling = (step / phase_len + seed) % 2 == 0;
        const std::uint64_t roll = rng.nextBounded(100);
        const auto node = static_cast<NodeId>(rng.nextBounded(nodes));
        const char *op;
        if (roll < (filling ? 60u : 20u)) {
            op = "alloc";
            const Pfn p = fa.alloc(node);
            ASSERT_EQ(p, ref.alloc(node)) << op << " step " << step;
            if (p == kPfnInvalid) {
                ++exhausted;
            } else {
                fallbacks += fa.nodeOf(p) != node;
                refs.push_back(p);
                ASSERT_EQ(fa.refcount(p), 1u);
            }
        } else if (roll < (filling ? 68u : 28u)) {
            op = "allocLowest";
            const Pfn p = fa.allocLowest(node);
            ASSERT_EQ(p, ref.allocLowest(node)) << op << " step " << step;
            if (p != kPfnInvalid)
                refs.push_back(p);
        } else if (roll < (filling ? 72u : 32u)) {
            op = "allocHuge";
            const Pfn p = fa.allocHuge(node);
            ASSERT_EQ(p, ref.allocHuge(node)) << op << " step " << step;
            if (p != kPfnInvalid)
                huges.push_back(p);
        } else if (roll < 80u) {
            op = "get";
            if (refs.empty())
                continue;
            const Pfn p = refs[rng.nextBounded(refs.size())];
            fa.get(p);
            ref.get(p);
            refs.push_back(p);
            ASSERT_EQ(fa.refcount(p), ref.refcount(p));
        } else if (roll < (filling ? 83u : 88u)) {
            op = "putHuge";
            if (huges.empty())
                continue;
            const Pfn base = takeRandom(huges);
            fa.putHuge(base);
            ref.putHuge(base);
            ASSERT_EQ(fa.refcount(base), ref.refcount(base));
        } else {
            op = "put";
            if (refs.empty())
                continue;
            const Pfn p = takeRandom(refs);
            fa.put(p);
            ref.put(p);
            ASSERT_EQ(fa.refcount(p), ref.refcount(p));
        }
        expectSame(op, step);
    }
    for (Pfn p = 0; p < total; ++p)
        ASSERT_EQ(fa.refcount(p), ref.refcount(p)) << "pfn " << p;
    // The campaign must have reached the interesting states.
    EXPECT_GT(exhausted, 0);
    if (nodes > 1) {
        EXPECT_GT(fallbacks, 0);
    }
    if (per_node >= 2 * kHugePageSpan) {
        EXPECT_GT(ref.freshLowestUnderFreed, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllocatorDifferential,
    ::testing::Values(OrderParam{1, 1024, 1}, OrderParam{1, 1100, 2},
                      OrderParam{2, 1536, 3}, OrderParam{3, 1024, 4},
                      OrderParam{2, 300, 5}, OrderParam{4, 2048, 6}));

class AllocatorChurn : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AllocatorChurn, AllocFreeBalanceHoldsUnderChurn)
{
    const unsigned nodes = GetParam();
    FrameAllocator fa(nodes, 64);
    std::vector<Pfn> held;
    // Deterministic churn pattern.
    for (int round = 0; round < 500; ++round) {
        if (round % 3 != 2) {
            Pfn p = fa.alloc(round % nodes);
            if (p != kPfnInvalid)
                held.push_back(p);
        } else if (!held.empty()) {
            fa.put(held.back());
            held.pop_back();
        }
    }
    EXPECT_EQ(fa.allocatedFrames(), held.size());
    std::uint64_t free_total = 0;
    for (unsigned n = 0; n < nodes; ++n)
        free_total += fa.freeFrames(n);
    EXPECT_EQ(free_total + held.size(),
              static_cast<std::uint64_t>(nodes) * 64);
}

INSTANTIATE_TEST_SUITE_P(Nodes, AllocatorChurn,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace latr
