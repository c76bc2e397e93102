/**
 * @file
 * The engine once had naive reference paths (a per-core tick event
 * and a full LATR sweep on every tick) next to its fast ones (tick
 * wheel, sweep-elision mask). Both are gone; what remains must still
 * produce what the naive paths produced. The tables below were
 * recorded from the last build that had them, running each script
 * with the naive paths on, after checking that the fast paths gave
 * the same digest, oracle verdicts and fallback count for every row.
 * These tests replay the same generated scripts on the 120-core and
 * the small topology and compare every row.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "check/executor.hh"
#include "check/script.hh"

namespace latr
{
namespace
{

/** One recorded naive-engine run. */
struct NaiveRun
{
    std::uint64_t seed;
    PolicyKind policy;
    std::uint64_t digest;
    std::uint64_t invariantViolations;
    std::uint64_t stalenessViolations;
    std::uint64_t latrFallbackIpis;
};

/** Seeds 1..12, 150 ops, large machine, pcid on odd seeds. */
constexpr NaiveRun kLargeNaive[] = {
    {1, PolicyKind::LinuxSync, 0xb5eec1d0fa24aeccULL, 0, 0, 0},
    {1, PolicyKind::Latr, 0xb5eec1d0fa24aeccULL, 0, 0, 0},
    {1, PolicyKind::Abis, 0xb5eec1d0fa24aeccULL, 0, 0, 0},
    {1, PolicyKind::Barrelfish, 0xb5eec1d0fa24aeccULL, 0, 0, 0},
    {1, PolicyKind::Predictive, 0xb5eec1d0fa24aeccULL, 0, 0, 0},
    {2, PolicyKind::LinuxSync, 0x6c95f02b83a1230aULL, 0, 0, 0},
    {2, PolicyKind::Latr, 0x6c95f02b83a1230aULL, 0, 0, 0},
    {2, PolicyKind::Abis, 0x6c95f02b83a1230aULL, 0, 0, 0},
    {2, PolicyKind::Barrelfish, 0x6c95f02b83a1230aULL, 0, 0, 0},
    {2, PolicyKind::Predictive, 0x6c95f02b83a1230aULL, 0, 0, 0},
    {3, PolicyKind::LinuxSync, 0x13c96a417961e941ULL, 0, 0, 0},
    {3, PolicyKind::Latr, 0x13c96a417961e941ULL, 0, 0, 0},
    {3, PolicyKind::Abis, 0x13c96a417961e941ULL, 0, 0, 0},
    {3, PolicyKind::Barrelfish, 0x13c96a417961e941ULL, 0, 0, 0},
    {3, PolicyKind::Predictive, 0x13c96a417961e941ULL, 0, 0, 0},
    {4, PolicyKind::LinuxSync, 0xc177ba16e5f0b768ULL, 0, 0, 0},
    {4, PolicyKind::Latr, 0xc177ba16e5f0b768ULL, 0, 0, 0},
    {4, PolicyKind::Abis, 0xc177ba16e5f0b768ULL, 0, 0, 0},
    {4, PolicyKind::Barrelfish, 0xc177ba16e5f0b768ULL, 0, 0, 0},
    {4, PolicyKind::Predictive, 0xc177ba16e5f0b768ULL, 0, 0, 0},
    {5, PolicyKind::LinuxSync, 0x60cd1c5337e61cd6ULL, 0, 0, 0},
    {5, PolicyKind::Latr, 0x60cd1c5337e61cd6ULL, 0, 0, 0},
    {5, PolicyKind::Abis, 0x60cd1c5337e61cd6ULL, 0, 0, 0},
    {5, PolicyKind::Barrelfish, 0x60cd1c5337e61cd6ULL, 0, 0, 0},
    {5, PolicyKind::Predictive, 0x60cd1c5337e61cd6ULL, 0, 0, 0},
    {6, PolicyKind::LinuxSync, 0x5288d4a12718ca48ULL, 0, 0, 0},
    {6, PolicyKind::Latr, 0x5288d4a12718ca48ULL, 0, 0, 0},
    {6, PolicyKind::Abis, 0x5288d4a12718ca48ULL, 0, 0, 0},
    {6, PolicyKind::Barrelfish, 0x5288d4a12718ca48ULL, 0, 0, 0},
    {6, PolicyKind::Predictive, 0x5288d4a12718ca48ULL, 0, 0, 0},
    {7, PolicyKind::LinuxSync, 0x8a67d6d5496405a8ULL, 0, 0, 0},
    {7, PolicyKind::Latr, 0x8a67d6d5496405a8ULL, 0, 0, 0},
    {7, PolicyKind::Abis, 0x8a67d6d5496405a8ULL, 0, 0, 0},
    {7, PolicyKind::Barrelfish, 0x8a67d6d5496405a8ULL, 0, 0, 0},
    {7, PolicyKind::Predictive, 0x8a67d6d5496405a8ULL, 0, 0, 0},
    {8, PolicyKind::LinuxSync, 0x389f5be0e95956e8ULL, 0, 0, 0},
    {8, PolicyKind::Latr, 0x389f5be0e95956e8ULL, 0, 0, 0},
    {8, PolicyKind::Abis, 0x389f5be0e95956e8ULL, 0, 0, 0},
    {8, PolicyKind::Barrelfish, 0x389f5be0e95956e8ULL, 0, 0, 0},
    {8, PolicyKind::Predictive, 0x389f5be0e95956e8ULL, 0, 0, 0},
    {9, PolicyKind::LinuxSync, 0x6f029ecfc0196e5eULL, 0, 0, 0},
    {9, PolicyKind::Latr, 0x6f029ecfc0196e5eULL, 0, 0, 0},
    {9, PolicyKind::Abis, 0x6f029ecfc0196e5eULL, 0, 0, 0},
    {9, PolicyKind::Barrelfish, 0x6f029ecfc0196e5eULL, 0, 0, 0},
    {9, PolicyKind::Predictive, 0x6f029ecfc0196e5eULL, 0, 0, 0},
    {10, PolicyKind::LinuxSync, 0x5b659df45ab04100ULL, 0, 0, 0},
    {10, PolicyKind::Latr, 0x5b659df45ab04100ULL, 0, 0, 0},
    {10, PolicyKind::Abis, 0x5b659df45ab04100ULL, 0, 0, 0},
    {10, PolicyKind::Barrelfish, 0x5b659df45ab04100ULL, 0, 0, 0},
    {10, PolicyKind::Predictive, 0x5b659df45ab04100ULL, 0, 0, 0},
    {11, PolicyKind::LinuxSync, 0xb0c7811d18490094ULL, 0, 0, 0},
    {11, PolicyKind::Latr, 0xb0c7811d18490094ULL, 0, 0, 0},
    {11, PolicyKind::Abis, 0xb0c7811d18490094ULL, 0, 0, 0},
    {11, PolicyKind::Barrelfish, 0xb0c7811d18490094ULL, 0, 0, 0},
    {11, PolicyKind::Predictive, 0xb0c7811d18490094ULL, 0, 0, 0},
    {12, PolicyKind::LinuxSync, 0x00b1cad786466325ULL, 0, 0, 0},
    {12, PolicyKind::Latr, 0x00b1cad786466325ULL, 0, 0, 0},
    {12, PolicyKind::Abis, 0x00b1cad786466325ULL, 0, 0, 0},
    {12, PolicyKind::Barrelfish, 0x00b1cad786466325ULL, 0, 0, 0},
    {12, PolicyKind::Predictive, 0x00b1cad786466325ULL, 0, 0, 0},
};

/** Seeds 100..109, 200 ops, small machine, pcid on odd seeds. */
constexpr NaiveRun kSmallNaive[] = {
    {100, PolicyKind::LinuxSync, 0xc7d4f9409ae90af7ULL, 0, 0, 0},
    {100, PolicyKind::Latr, 0xc7d4f9409ae90af7ULL, 0, 0, 0},
    {100, PolicyKind::Abis, 0xc7d4f9409ae90af7ULL, 0, 0, 0},
    {100, PolicyKind::Barrelfish, 0xc7d4f9409ae90af7ULL, 0, 0, 0},
    {100, PolicyKind::Predictive, 0xc7d4f9409ae90af7ULL, 0, 0, 0},
    {101, PolicyKind::LinuxSync, 0xd8e3c7468ac9dfebULL, 0, 0, 0},
    {101, PolicyKind::Latr, 0xd8e3c7468ac9dfebULL, 0, 0, 0},
    {101, PolicyKind::Abis, 0xd8e3c7468ac9dfebULL, 0, 0, 0},
    {101, PolicyKind::Barrelfish, 0xd8e3c7468ac9dfebULL, 0, 0, 0},
    {101, PolicyKind::Predictive, 0xd8e3c7468ac9dfebULL, 0, 0, 0},
    {102, PolicyKind::LinuxSync, 0x7c6e81ed57fdafdeULL, 0, 0, 0},
    {102, PolicyKind::Latr, 0x7c6e81ed57fdafdeULL, 0, 0, 0},
    {102, PolicyKind::Abis, 0x7c6e81ed57fdafdeULL, 0, 0, 0},
    {102, PolicyKind::Barrelfish, 0x7c6e81ed57fdafdeULL, 0, 0, 0},
    {102, PolicyKind::Predictive, 0x7c6e81ed57fdafdeULL, 0, 0, 0},
    {103, PolicyKind::LinuxSync, 0x7da99564fd2d83efULL, 0, 0, 0},
    {103, PolicyKind::Latr, 0x7da99564fd2d83efULL, 0, 0, 0},
    {103, PolicyKind::Abis, 0x7da99564fd2d83efULL, 0, 0, 0},
    {103, PolicyKind::Barrelfish, 0x7da99564fd2d83efULL, 0, 0, 0},
    {103, PolicyKind::Predictive, 0x7da99564fd2d83efULL, 0, 0, 0},
    {104, PolicyKind::LinuxSync, 0xe43660229a747667ULL, 0, 0, 0},
    {104, PolicyKind::Latr, 0xe43660229a747667ULL, 0, 0, 0},
    {104, PolicyKind::Abis, 0xe43660229a747667ULL, 0, 0, 0},
    {104, PolicyKind::Barrelfish, 0xe43660229a747667ULL, 0, 0, 0},
    {104, PolicyKind::Predictive, 0xe43660229a747667ULL, 0, 0, 0},
    {105, PolicyKind::LinuxSync, 0x19282f18ecb9dbd3ULL, 0, 0, 0},
    {105, PolicyKind::Latr, 0x19282f18ecb9dbd3ULL, 0, 0, 0},
    {105, PolicyKind::Abis, 0x19282f18ecb9dbd3ULL, 0, 0, 0},
    {105, PolicyKind::Barrelfish, 0x19282f18ecb9dbd3ULL, 0, 0, 0},
    {105, PolicyKind::Predictive, 0x19282f18ecb9dbd3ULL, 0, 0, 0},
    {106, PolicyKind::LinuxSync, 0x029a533ec4d55705ULL, 0, 0, 0},
    {106, PolicyKind::Latr, 0x029a533ec4d55705ULL, 0, 0, 0},
    {106, PolicyKind::Abis, 0x029a533ec4d55705ULL, 0, 0, 0},
    {106, PolicyKind::Barrelfish, 0x029a533ec4d55705ULL, 0, 0, 0},
    {106, PolicyKind::Predictive, 0x029a533ec4d55705ULL, 0, 0, 0},
    {107, PolicyKind::LinuxSync, 0xd5d0b15d95978e23ULL, 0, 0, 0},
    {107, PolicyKind::Latr, 0xd5d0b15d95978e23ULL, 0, 0, 0},
    {107, PolicyKind::Abis, 0xd5d0b15d95978e23ULL, 0, 0, 0},
    {107, PolicyKind::Barrelfish, 0xd5d0b15d95978e23ULL, 0, 0, 0},
    {107, PolicyKind::Predictive, 0xd5d0b15d95978e23ULL, 0, 0, 0},
    {108, PolicyKind::LinuxSync, 0xd4bd5eb2e3d44e14ULL, 0, 0, 0},
    {108, PolicyKind::Latr, 0xd4bd5eb2e3d44e14ULL, 0, 0, 0},
    {108, PolicyKind::Abis, 0xd4bd5eb2e3d44e14ULL, 0, 0, 0},
    {108, PolicyKind::Barrelfish, 0xd4bd5eb2e3d44e14ULL, 0, 0, 0},
    {108, PolicyKind::Predictive, 0xd4bd5eb2e3d44e14ULL, 0, 0, 0},
    {109, PolicyKind::LinuxSync, 0xf6b06d45d89ed590ULL, 0, 0, 0},
    {109, PolicyKind::Latr, 0xf6b06d45d89ed590ULL, 0, 0, 0},
    {109, PolicyKind::Abis, 0xf6b06d45d89ed590ULL, 0, 0, 0},
    {109, PolicyKind::Barrelfish, 0xf6b06d45d89ed590ULL, 0, 0, 0},
    {109, PolicyKind::Predictive, 0xf6b06d45d89ed590ULL, 0, 0, 0},
};

/** Replay @p gen's script for every row of @p table and compare. */
template <std::size_t N>
void
expectMatchesNaive(const NaiveRun (&table)[N], GenOptions gen)
{
    const std::size_t policies = allPolicyKinds().size();
    ASSERT_EQ(N % policies, 0u);
    for (std::size_t row = 0; row < N; row += policies) {
        const std::uint64_t seed = table[row].seed;
        gen.pcid = (seed & 1) != 0;
        const Script script = generateScript(seed, gen);
        for (std::size_t i = 0; i < policies; ++i) {
            const NaiveRun &want = table[row + i];
            ASSERT_EQ(want.seed, seed);
            ASSERT_EQ(want.policy, allPolicyKinds()[i]);
            const RunResult got = runScript(script, want.policy);
            EXPECT_EQ(stateDigest(got), want.digest)
                << "seed " << seed << " policy "
                << policyKindName(want.policy);
            EXPECT_EQ(got.invariantViolations, want.invariantViolations)
                << "seed " << seed << " policy "
                << policyKindName(want.policy);
            EXPECT_EQ(got.stalenessViolations, want.stalenessViolations)
                << "seed " << seed << " policy "
                << policyKindName(want.policy);
            EXPECT_EQ(got.latrFallbackIpis, want.latrFallbackIpis)
                << "seed " << seed << " policy "
                << policyKindName(want.policy);
        }
    }
}

/**
 * A dozen seeds x 5 policies on the 8-socket/120-core machine, where
 * every CpuMask word boundary is exercised: every architectural
 * digest and oracle verdict must match the naive engine's.
 */
TEST(FastpathEquivalence, LargeMachineDigestsMatchNaive)
{
    GenOptions gen;
    gen.numOps = 150;
    gen.large = true;
    expectMatchesNaive(kLargeNaive, gen);
}

/** The small commodity topology must agree too. */
TEST(FastpathEquivalence, SmallMachineDigestsMatchNaive)
{
    GenOptions gen;
    gen.numOps = 200;
    expectMatchesNaive(kSmallNaive, gen);
}

} // namespace
} // namespace latr
