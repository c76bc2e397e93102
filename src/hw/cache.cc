#include "hw/cache.hh"

#include "sim/logging.hh"

namespace latr
{

namespace
{

unsigned
setsFor(std::uint64_t size_bytes, unsigned ways, unsigned line_bytes)
{
    if (ways == 0 || line_bytes == 0)
        fatal("LLC needs nonzero ways and line size");
    std::uint64_t lines = size_bytes / line_bytes;
    if (lines < ways)
        fatal("LLC smaller than one set");
    return static_cast<unsigned>(lines / ways);
}

} // namespace

LlcCache::LlcCache(std::uint64_t size_bytes, unsigned ways,
                   unsigned line_bytes)
    : ways_(ways), lineBytes_(line_bytes),
      sets_(setsFor(size_bytes, ways, line_bytes)), rowOf_(sets_),
      lines_(static_cast<std::size_t>(sets_) * ways_)
{
}

unsigned
LlcCache::setOf(std::uint64_t line_addr) const
{
    // Multiplicative hashing spreads synthetic workload addresses
    // across sets the way physical indexing would.
    return static_cast<unsigned>(
        (line_addr * 0x9e3779b97f4a7c15ULL >> 32) % sets_);
}

bool
LlcCache::access(std::uint64_t line_addr, CacheAccessOrigin origin)
{
    // A set's first access hands it the next row (first-touch order).
    std::uint32_t &row = rowOf_[setOf(line_addr)];
    if (row == 0)
        row = ++nextRow_;
    Line *base = &lines_[static_cast<std::size_t>(row - 1) * ways_];
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
    lru->tag = line_addr;
    lru->lastUse = useClock_;
    return false;
}

void
LlcCache::setLatrReservedWays(unsigned ways)
{
    if (ways >= ways_)
        fatal("CAT reservation must leave ways for other traffic");
    latrWays_ = ways;
}

bool
LlcCache::probe(std::uint64_t line_addr) const
{
    const std::uint32_t row = rowOf_[setOf(line_addr)];
    if (row == 0)
        return false; // never accessed; holds no row
    const Line *base = &lines_[static_cast<std::size_t>(row - 1) * ways_];
    for (unsigned w = 0; w < ways_; ++w)
        if (base[w].valid() && base[w].tag == line_addr)
            return true;
    return false;
}

std::uint64_t
LlcCache::hits(CacheAccessOrigin origin) const
{
    return hits_[static_cast<int>(origin)];
}

std::uint64_t
LlcCache::misses(CacheAccessOrigin origin) const
{
    return misses_[static_cast<int>(origin)];
}

double
LlcCache::appMissRatio() const
{
    const std::uint64_t h = hits_[0];
    const std::uint64_t m = misses_[0];
    if (h + m == 0)
        return 0.0;
    return static_cast<double>(m) / static_cast<double>(h + m);
}

void
LlcCache::resetStats()
{
    for (int i = 0; i < 3; ++i) {
        hits_[i] = 0;
        misses_[i] = 0;
    }
}

} // namespace latr
