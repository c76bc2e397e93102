// Unit tests for the NUMA topology and machine presets.

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/machine_config.hh"
#include "topo/topology.hh"

namespace latr
{
namespace
{

TEST(Topology, NodeOfMapsDensely)
{
    NumaTopology t(2, 8);
    EXPECT_EQ(t.totalCores(), 16u);
    EXPECT_EQ(t.nodeOf(0), 0u);
    EXPECT_EQ(t.nodeOf(7), 0u);
    EXPECT_EQ(t.nodeOf(8), 1u);
    EXPECT_EQ(t.nodeOf(15), 1u);
}

TEST(Topology, CoresOnNode)
{
    NumaTopology t(2, 3);
    EXPECT_EQ(t.coresOnNode(0), (std::vector<CoreId>{0, 1, 2}));
    EXPECT_EQ(t.coresOnNode(1), (std::vector<CoreId>{3, 4, 5}));
}

TEST(Topology, TwoSocketHops)
{
    NumaTopology t(2, 8);
    EXPECT_EQ(t.hops(0, 1), 0u);
    EXPECT_EQ(t.hops(0, 8), 1u);
    EXPECT_EQ(t.maxHops(), 1u);
}

TEST(Topology, EightSocketHopsCapAtTwo)
{
    NumaTopology t(8, 15);
    EXPECT_EQ(t.socketHops(0, 0), 0u);
    EXPECT_EQ(t.socketHops(0, 1), 1u);
    EXPECT_EQ(t.socketHops(0, 3), 2u);  // Hamming distance 2
    EXPECT_EQ(t.socketHops(0, 7), 2u);  // Hamming distance 3, capped
    EXPECT_EQ(t.maxHops(), 2u);
}

TEST(Topology, HopsAreSymmetric)
{
    NumaTopology t(8, 2);
    for (CoreId a = 0; a < t.totalCores(); ++a)
        for (CoreId b = 0; b < t.totalCores(); ++b)
            EXPECT_EQ(t.hops(a, b), t.hops(b, a));
}

TEST(Topology, CachedMaxHopsIsPairwiseMaximum)
{
    // maxHops() is computed once at construction; it must equal the
    // largest socketHops() over every socket pair.
    for (unsigned sockets : {1u, 2u, 3u, 4u, 8u}) {
        NumaTopology t(sockets, 2);
        unsigned pairwise = 0;
        for (NodeId a = 0; a < sockets; ++a)
            for (NodeId b = 0; b < sockets; ++b)
                pairwise = std::max(pairwise, t.socketHops(a, b));
        EXPECT_EQ(t.maxHops(), pairwise) << sockets << " sockets";
    }
    EXPECT_EQ(NumaTopology(1, 4).maxHops(), 0u);
    EXPECT_EQ(NumaTopology(3, 4).maxHops(), 2u); // sockets 1 and 2
}

TEST(TopologyDeath, OutOfRangeCorePanics)
{
    NumaTopology t(2, 2);
    EXPECT_DEATH(t.nodeOf(4), "out of range");
}

TEST(MachineConfigPresets, CommodityMatchesTable3)
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    EXPECT_EQ(cfg.sockets, 2u);
    EXPECT_EQ(cfg.coresPerSocket, 8u);
    EXPECT_EQ(cfg.totalCores(), 16u);
    EXPECT_EQ(cfg.l1TlbEntries, 64u);
    EXPECT_EQ(cfg.l2TlbEntries, 1024u);
    EXPECT_EQ(cfg.llcBytesPerSocket, 20ULL * 1024 * 1024);
    EXPECT_EQ(cfg.latrStatesPerCore, 64u);
    EXPECT_FALSE(cfg.pcidEnabled); // Linux 4.10 default
}

TEST(MachineConfigPresets, LargeNumaMatchesTable3)
{
    MachineConfig cfg = MachineConfig::largeNuma8S120C();
    EXPECT_EQ(cfg.sockets, 8u);
    EXPECT_EQ(cfg.coresPerSocket, 15u);
    EXPECT_EQ(cfg.totalCores(), 120u);
    EXPECT_EQ(cfg.l2TlbEntries, 512u);
    EXPECT_EQ(cfg.llcBytesPerSocket, 30ULL * 1024 * 1024);
}

TEST(CostModel, SingleIpiMatchesPaperCalibration)
{
    // Paper section 1: an IPI takes ~2.7 us on the 2-socket machine
    // (one hop) and ~6.6 us on the 8-socket one (two hops).
    CostModel c2 = commodityCostModel();
    EXPECT_NEAR(c2.ipiDeliveryCost(1), 2700, 300);
    CostModel c8 = largeNumaCostModel();
    EXPECT_NEAR(c8.ipiDeliveryCost(2), 6600, 400);
}

TEST(CostModel, Table5Anchors)
{
    CostModel c = commodityCostModel();
    EXPECT_NEAR(c.latrStateSave, 132, 5);
    // Sweep fixed cost plus one match lands near the paper's 158 ns.
    EXPECT_NEAR(c.latrSweepFixed + c.latrSweepPerMatch, 158, 10);
}

TEST(CostModel, LocalInvalidateBatching)
{
    CostModel c;
    EXPECT_EQ(c.localInvalidateCost(1), c.invlpg);
    EXPECT_EQ(c.localInvalidateCost(32), 32 * c.invlpg);
    // 33 or more pages: full flush (half the 64-entry L1 D-TLB).
    EXPECT_EQ(c.localInvalidateCost(33), c.tlbFullFlush);
    EXPECT_EQ(c.localInvalidateCost(512), c.tlbFullFlush);
}

class TopologySweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(TopologySweep, EveryCoreHasANodeAndHopsAreBounded)
{
    auto [sockets, cps] = GetParam();
    NumaTopology t(sockets, cps);
    for (CoreId c = 0; c < t.totalCores(); ++c) {
        EXPECT_LT(t.nodeOf(c), sockets);
        EXPECT_LE(t.hops(0, c), 2u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologySweep,
    ::testing::Values(std::make_pair(1u, 4u), std::make_pair(2u, 8u),
                      std::make_pair(4u, 4u), std::make_pair(8u, 15u),
                      std::make_pair(8u, 16u)));

} // namespace
} // namespace latr
