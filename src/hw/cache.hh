/**
 * @file
 * A per-socket last-level-cache model, set-associative with LRU
 * replacement. It exists to reproduce table 4 of the paper: the LLC
 * miss-ratio difference between Linux (whose IPI handlers pollute
 * remote caches) and LATR (whose states occupy a small, bounded LLC
 * footprint). Accesses are tagged by origin so the application miss
 * ratio can be reported separately from kernel/interrupt traffic.
 *
 * The line array is one zero-filled allocation (ZeroedArray) in which
 * an all-zero line is invalid, so construction does no
 * initialisation pass. Sets do not own fixed rows of it: a set is
 * given the next free row the first time it is accessed (rowOf_), so
 * the rows of the sets a run touches sit together at the front of
 * the array. The OS backs only those rows' pages, and a hit reads
 * host memory that is dense instead of scattered by the set hash: a
 * run pays for the sets it uses, not for the cache's capacity. Set
 * choice, hits, victims and stats do not depend on where a set's
 * ways are stored.
 */

#ifndef LATR_HW_CACHE_HH_
#define LATR_HW_CACHE_HH_

#include <cstdint>

#include "sim/types.hh"
#include "sim/zeroed_array.hh"

namespace latr
{

/** Who issued a cache access (for attribution in stats). */
enum class CacheAccessOrigin
{
    App,        ///< workload loads/stores
    Interrupt,  ///< IPI handler footprint
    LatrSweep,  ///< LATR state-sweep reads
};

/**
 * One socket's LLC. Addresses are cache-line indices (byte address
 * divided by the line size); the model tracks only presence, not
 * data.
 */
class LlcCache
{
  public:
    /**
     * @param size_bytes total capacity.
     * @param ways associativity.
     * @param line_bytes cache-line size.
     */
    LlcCache(std::uint64_t size_bytes, unsigned ways, unsigned line_bytes);

    LlcCache(const LlcCache &) = delete;
    LlcCache &operator=(const LlcCache &) = delete;

    /**
     * Access one line. Misses install the line, evicting LRU.
     * @param line_addr line index (already divided by line size).
     * @return true on hit.
     */
    bool access(std::uint64_t line_addr, CacheAccessOrigin origin);

    /** True if @p line_addr is resident (no LRU side effects). */
    bool probe(std::uint64_t line_addr) const;

    /**
     * Intel CAT-style way partitioning (the paper's section 7
     * hardware support): reserve @p ways ways of every set for
     * LatrSweep-origin fills; all other origins allocate in the
     * remaining ways. Hits are unaffected. Zero (default) disables
     * partitioning.
     */
    void setLatrReservedWays(unsigned ways);

    unsigned latrReservedWays() const { return latrWays_; }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    unsigned lineBytes() const { return lineBytes_; }

    /// @name Stats (per origin: App=0, Interrupt=1, LatrSweep=2)
    /// @{
    std::uint64_t hits(CacheAccessOrigin origin) const;
    std::uint64_t misses(CacheAccessOrigin origin) const;
    /** Application miss ratio in [0, 1]. */
    double appMissRatio() const;
    void resetStats();
    /// @}

  private:
    /**
     * One cache line. lastUse == 0 means invalid: the use clock is
     * advanced before every stamp, so a valid line's is at least 1.
     */
    struct Line
    {
        std::uint64_t tag;
        std::uint64_t lastUse;

        bool valid() const { return lastUse != 0; }
    };

    unsigned setOf(std::uint64_t line_addr) const;

    unsigned ways_;
    unsigned latrWays_ = 0; // CAT reservation for LATR states
    unsigned lineBytes_;
    unsigned sets_;
    std::uint64_t useClock_ = 0;
    /** Per set: 1 + its row in lines_, or 0 before its first access. */
    ZeroedArray<std::uint32_t> rowOf_;
    std::uint32_t nextRow_ = 0; // rows handed out so far
    ZeroedArray<Line> lines_;   // sets_ rows of ways_ lines each

    std::uint64_t hits_[3] = {0, 0, 0};
    std::uint64_t misses_[3] = {0, 0, 0};
};

} // namespace latr

#endif // LATR_HW_CACHE_HH_
