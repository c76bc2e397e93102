/**
 * @file
 * Per-core two-level TLB model. Capacities follow table 3 of the
 * paper (64-entry L1 D-TLB, 512/1024-entry L2 STLB), entries are
 * tagged with a PCID, and the usual x86 operations are provided:
 * INVLPG of a single page, a full flush (CR3 write), and PCID-
 * selective flushes. An optional listener observes every insertion
 * and removal, which the invariant checker uses to prove the paper's
 * reuse invariant.
 *
 * L1 and L2 are two exclusive tiers of one fixed-capacity slot array
 * reserved at construction, with one open-addressing (linear probe,
 * backward-shift deletion) index table over both. Slots and index
 * cells are written as entries arrive, not when the TLB is built:
 * most cores of a large machine cache only a handful of entries.
 * Each tier keeps its own true-LRU order as an intrusive prev/next
 * chain through the slots. An L2 hit is one probe plus two chain
 * relinks: promotion and the L1 victim's spill change which tier
 * holds a key, never where the index finds it. The 2 MiB array is
 * the same structure with one tier. The hottest simulator path
 * performs zero heap allocation after the TLB is built.
 */

#ifndef LATR_HW_TLB_HH_
#define LATR_HW_TLB_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace latr
{

class TraceRecorder;

/** Observes TLB content changes (used by the invariant checker). */
class TlbListener
{
  public:
    virtual ~TlbListener() = default;

    /** Called when a translation enters the TLB (either level). */
    virtual void onTlbInsert(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) = 0;

    /**
     * Called when a translation leaves the TLB entirely (it is in
     * neither level anymore).
     */
    virtual void onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) = 0;
};

/** Outcome of a TLB lookup. */
enum class TlbResult
{
    HitL1,  ///< found in the L1 D-TLB
    HitL2,  ///< found in the L2 STLB (promoted to L1)
    Miss,   ///< page walk required
};

/**
 * A two-level, per-core TLB. Both levels are fully associative with
 * true LRU replacement; L1 victims spill into L2, L2 victims leave
 * the TLB. Lookups and insertions are keyed by (PCID, VPN).
 */
class Tlb
{
  public:
    /**
     * @param core owning core id (reported to the listener).
     * @param l1_entries L1 capacity (64 on both paper machines).
     * @param l2_entries L2 capacity.
     * @param huge_entries capacity of the separate 2 MiB-entry
     *        array (32, as on the paper's Haswell/Ivy Bridge parts).
     */
    Tlb(CoreId core, unsigned l1_entries, unsigned l2_entries,
        unsigned huge_entries = 32);

    Tlb(const Tlb &) = delete;
    Tlb &operator=(const Tlb &) = delete;

    /** Attach @p listener as the sole observer (nullptr detaches all). */
    void
    setListener(TlbListener *listener)
    {
        listeners_.clear();
        if (listener)
            listeners_.push_back(listener);
    }

    /**
     * Attach an additional observer alongside any already present
     * (the invariant checker and the staleness oracle both mirror
     * TLB contents).
     */
    void
    addListener(TlbListener *listener)
    {
        if (listener)
            listeners_.push_back(listener);
    }

    /**
     * Attach the trace recorder (nullptr to detach). Flushes and
     * range invalidations emit instants; lookups stay silent (they
     * are the simulator's hottest path).
     */
    void setTracer(TraceRecorder *trace) { trace_ = trace; }

    /**
     * Look up @p vpn under @p pcid. On an L2 hit the entry is
     * promoted to L1.
     * @param pfn_out receives the frame on a hit.
     * @param writable_out receives the cached write permission on a
     *        hit (x86 TLBs cache the W bit; a write through a
     *        read-only entry forces a re-walk).
     */
    TlbResult lookup(Vpn vpn, Pcid pcid, Pfn *pfn_out = nullptr,
                     bool *writable_out = nullptr,
                     bool *huge_out = nullptr);

    /** True if the translation is cached (no LRU side effects). */
    bool probe(Vpn vpn, Pcid pcid) const;

    /**
     * Like probe(), but also reports the cached frame so callers can
     * match on the exact (vpn → pfn) translation. PredictivePolicy's
     * verification probes match the frame: a vpn that was re-mapped
     * to a fresh frame since the free is not a stale hit.
     */
    bool probePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const;

    /**
     * probePfn() for the 2 MiB array: reports the base frame of the
     * huge entry covering @p vpn, if any.
     */
    bool probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const;

    /** Install a translation (after a page walk). */
    void insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable = true);

    /**
     * Install a 2 MiB translation in the huge-entry array. The
     * listener sees it keyed by the huge region's base frame.
     */
    void insertHuge(Vpn base_vpn, Pfn base_pfn, Pcid pcid,
                    bool writable = true);

    /** True if a huge entry covers @p vpn (no LRU side effects). */
    bool probeHuge(Vpn vpn, Pcid pcid) const;

    /** INVLPG: drop one page's translation under @p pcid. */
    void invalidatePage(Vpn vpn, Pcid pcid);

    /**
     * Drop every translation for pages in [start_vpn, end_vpn].
     * Adaptive: when the range is narrower than a level's occupancy
     * it probes each VPN directly; otherwise it scans the level.
     */
    void invalidateRange(Vpn start_vpn, Vpn end_vpn, Pcid pcid);

    /** Drop every translation tagged @p pcid. */
    void invalidatePcid(Pcid pcid);

    /**
     * Full flush (CR3 write): drop everything. Costs O(size()), so
     * flushing an empty TLB is cheap; it still counts as a flush
     * and emits its trace instant.
     */
    void flushAll();

    /** Number of valid entries across all arrays. */
    std::size_t
    size() const
    {
        return base_.size() + huge_.size();
    }

    /** Number of valid 2 MiB entries. */
    std::size_t hugeSize() const { return huge_.size(); }

    /// @name Stats
    /// @{
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t flushes() const { return flushes_; }
    /// @}

    /**
     * Index cells a fresh array starts with (fewer if its full index
     * is smaller). The index doubles before its load passes 50%.
     */
    static constexpr std::uint32_t kMinIndexCells = 16;

    /// @name Footprint (what the arrays have written so far)
    /// @{
    /** Slot records ever handed out, both arrays. */
    std::size_t
    slotsTouched() const
    {
        return base_.slotsTouched() + huge_.slotsTouched();
    }
    /** Cells of the 4 KiB array's index. */
    std::size_t indexCells() const { return base_.indexCells(); }
    /** Cells of the 2 MiB array's index. */
    std::size_t hugeIndexCells() const { return huge_.indexCells(); }
    /// @}

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

    /**
     * Fully associative LRU storage for one or two exclusive tiers:
     * one slot array and one linear-probe index table (≤50% load)
     * over every tier, plus an intrusive MRU→LRU chain and a count
     * per tier. A key lives in at most one tier, so moving an entry
     * between tiers relinks chains and never touches the index.
     *
     * The constructor reserves both vectors' full capacity and
     * writes almost nothing: never-used slots come from a bump
     * cursor (the end of slots_), the free list holds only slots
     * that erase() or clear() released, and the index starts at
     * kMinIndexCells and doubles (rehashing the live slots from the
     * tier chains) before an insert would push its load past 50%.
     * It never shrinks, and it stops at the smallest power of two
     * holding the full capacity at ≤50% load. No member allocates
     * after the constructor.
     *
     * The 4 KiB arrays are tier 0 (L1) and tier 1 (L2): new entries
     * enter tier 0, tier 0's LRU entry spills to tier 1's MRU end,
     * and tier 1's LRU entry leaves. The 2 MiB array has one tier.
     */
    class SlotArray
    {
      public:
        static constexpr std::uint16_t kNil = 0xffff;

        /** @param l2 capacity of tier 1; 0 makes a one-tier array. */
        SlotArray(unsigned l1, unsigned l2);

        /** Probe the index table. @return slot index or kNil. */
        std::uint16_t find(const Key &k) const;

        Entry &entry(std::uint16_t i) { return slots_[i].entry; }
        const Entry &
        entry(std::uint16_t i) const
        {
            return slots_[i].entry;
        }
        unsigned tierOf(std::uint16_t i) const { return slots_[i].tier; }

        /**
         * Move slot @p i to tier 0's MRU end. Leaving tier 1, it
         * spills tier 0's LRU entry to tier 1's MRU end when tier 0
         * overflows; the set of cached keys does not change.
         */
        void promote(std::uint16_t i);

        /**
         * Insert @p e, whose key must be absent, at tier 0's MRU end.
         * When every tier is full, the last tier's LRU entry is
         * evicted first, into @p victim_out, and true is returned.
         */
        bool insert(const Entry &e, Entry *victim_out);

        /** Remove slot @p i (index, chain, free list). */
        void erase(std::uint16_t i);

        std::size_t size() const { return size_; }
        std::size_t tierSize(unsigned t) const { return tiers_[t].size; }

        /** Invoke @p fn on each entry of tier @p t, MRU first. */
        template <typename Fn>
        void
        forEach(unsigned t, Fn &&fn) const
        {
            for (std::uint16_t i = tiers_[t].head; i != kNil;
                 i = slots_[i].next)
                fn(slots_[i].entry);
        }

        /**
         * Remove every entry of tier @p t matching @p pred, MRU-to-
         * LRU order, invoking @p on_remove with a copy of each.
         */
        template <typename Pred, typename OnRemove>
        void
        removeMatching(unsigned t, Pred &&pred, OnRemove &&on_remove)
        {
            std::uint16_t i = tiers_[t].head;
            while (i != kNil) {
                const std::uint16_t next = slots_[i].next;
                if (pred(slots_[i].entry)) {
                    const Entry removed = slots_[i].entry;
                    erase(i);
                    on_remove(removed);
                }
                i = next;
            }
        }

        /** Erase every live entry; O(size), not O(capacity). */
        void clear();

        std::size_t slotsTouched() const { return slots_.size(); }
        std::size_t indexCells() const { return table_.size(); }

      private:
        struct Slot
        {
            Entry entry;
            /** Tier chain while live; next doubles as free-list link. */
            std::uint16_t prev;
            std::uint16_t next;
            std::uint8_t tier;
        };

        struct Tier
        {
            std::uint16_t head = kNil; // MRU
            std::uint16_t tail = kNil; // LRU
            std::size_t size = 0;
            std::size_t capacity = 0;
        };

        static std::uint32_t
        hashOf(const Key &k)
        {
            std::uint64_t h =
                (static_cast<std::uint64_t>(k.pcid) << 48) ^ k.vpn;
            h *= 0x9e3779b97f4a7c15ULL; // Fibonacci mix
            return static_cast<std::uint32_t>(h >> 32);
        }

        /** Unlink slot @p i from its tier's chain. */
        void unlink(std::uint16_t i);

        /** Link slot @p i at tier @p t's MRU end. */
        void linkFront(std::uint16_t i, unsigned t);

        /** Move tier 0's LRU slot to tier 1's MRU end if over capacity. */
        void spillOverflow();

        /** Point the first empty cell on slot @p i's probe path at it. */
        void tablePlace(std::uint16_t i);

        /** Erase the table cell pointing at slot @p i (backward shift). */
        void tableErase(std::uint16_t i);

        /** Double the index and re-place every live slot. */
        void growIndex();

        Tier tiers_[2]; // tier 1 has capacity 0 in a one-tier array
        std::uint32_t mask_; // table size - 1 (power of two)
        std::size_t size_ = 0;
        std::size_t capacity_;
        std::uint16_t freeHead_ = kNil;
        std::vector<Slot> slots_; // slots handed out; capacity_ reserved
        std::vector<std::uint16_t> table_; // slot index or kNil
    };

    void notifyInsert(const Entry &e);
    void notifyRemove(const Entry &e);

    /** insert()/insertHuge(): refresh a present key or add a new one. */
    void install(SlotArray &array, const Entry &e);

    /** Remove slot @p i of @p array and notify its removal. */
    void drop(SlotArray &array, std::uint16_t i);

    /** invalidateRange over one 4 KiB tier, probe or scan. */
    void invalidateRangeIn(unsigned tier, Vpn start_vpn, Vpn end_vpn,
                           Pcid pcid);

    CoreId core_;
    SlotArray base_; // 4 KiB entries: L1 tier 0, L2 tier 1
    SlotArray huge_; // separate 2 MiB-entry array, one tier
    std::vector<TlbListener *> listeners_;
    TraceRecorder *trace_ = nullptr;

    std::uint64_t l1Hits_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t flushes_ = 0;
};

} // namespace latr

#endif // LATR_HW_TLB_HH_
