#include "hw/tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

Tlb::SlotArray::SlotArray(unsigned l1, unsigned l2) : capacity_(l1 + l2)
{
    if (l1 == 0 || capacity_ >= kNil)
        fatal("TLB array capacity %u+%u out of range", l1, l2);
    tiers_[0].capacity = l1;
    tiers_[1].capacity = l2;
    std::uint32_t full_cells = 1;
    while (full_cells < 2 * capacity_) // ≤50% load when full
        full_cells <<= 1;
    // Reserve everything the array can ever hold, so growth never
    // reallocates, but write only the starting index.
    slots_.reserve(capacity_);
    table_.reserve(full_cells);
    table_.assign(std::min(full_cells, kMinIndexCells), kNil);
    mask_ = static_cast<std::uint32_t>(table_.size() - 1);
}

std::uint16_t
Tlb::SlotArray::find(const Key &k) const
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
Tlb::SlotArray::unlink(std::uint16_t i)
{
    const Slot &s = slots_[i];
    Tier &t = tiers_[s.tier];
    if (s.prev != kNil)
        slots_[s.prev].next = s.next;
    else
        t.head = s.next;
    if (s.next != kNil)
        slots_[s.next].prev = s.prev;
    else
        t.tail = s.prev;
    --t.size;
}

void
Tlb::SlotArray::linkFront(std::uint16_t i, unsigned tier)
{
    Slot &s = slots_[i];
    Tier &t = tiers_[tier];
    s.tier = static_cast<std::uint8_t>(tier);
    s.prev = kNil;
    s.next = t.head;
    if (t.head != kNil)
        slots_[t.head].prev = i;
    else
        t.tail = i;
    t.head = i;
    ++t.size;
}

void
Tlb::SlotArray::tablePlace(std::uint16_t slot)
{
    std::uint32_t pos = hashOf(slots_[slot].entry.key) & mask_;
    while (table_[pos] != kNil)
        pos = (pos + 1) & mask_;
    table_[pos] = slot;
}

void
Tlb::SlotArray::growIndex()
{
    // Within the reserved capacity: assign() never reallocates.
    table_.assign(2 * table_.size(), kNil);
    mask_ = static_cast<std::uint32_t>(table_.size() - 1);
    for (const Tier &t : tiers_)
        for (std::uint16_t i = t.head; i != kNil; i = slots_[i].next)
            tablePlace(i);
}

void
Tlb::SlotArray::tableErase(std::uint16_t slot)
{
    std::uint32_t i = hashOf(slots_[slot].entry.key) & mask_;
    while (table_[i] != slot)
        i = (i + 1) & mask_;
    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones: walk forward from the freed cell and pull back any
    // entry whose home position lies cyclically outside (i, j].
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
Tlb::SlotArray::erase(std::uint16_t i)
{
    tableErase(i);
    unlink(i);
    slots_[i].next = freeHead_;
    freeHead_ = i;
    --size_;
}

void
Tlb::SlotArray::spillOverflow()
{
    if (tiers_[0].size > tiers_[0].capacity) {
        const std::uint16_t spill = tiers_[0].tail;
        unlink(spill);
        linkFront(spill, 1);
    }
}

void
Tlb::SlotArray::promote(std::uint16_t i)
{
    if (i == tiers_[0].head)
        return;
    unlink(i);
    linkFront(i, 0);
    spillOverflow();
}

bool
Tlb::SlotArray::insert(const Entry &e, Entry *victim_out)
{
    bool had_victim = false;
    if (size_ == capacity_) {
        const Tier &last = tiers_[tiers_[1].capacity != 0 ? 1 : 0];
        *victim_out = slots_[last.tail].entry;
        had_victim = true;
        erase(last.tail);
    }
    // The index holds at least twice the entries, so one doubling
    // suffices, and a full array never grows it past its full size.
    if (2 * (size_ + 1) > table_.size())
        growIndex();
    std::uint16_t slot = freeHead_;
    if (slot != kNil) {
        freeHead_ = slots_[slot].next;
    } else {
        slot = static_cast<std::uint16_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].entry = e;
    tablePlace(slot);
    ++size_;
    linkFront(slot, 0);
    spillOverflow();
    return had_victim;
}

void
Tlb::SlotArray::clear()
{
    // Erase only the live slots: a flush costs O(size), not
    // O(capacity), and most flushes (CR3 writes without PCID) hit an
    // already empty TLB. Everything goes, so no backward shift is
    // needed: each live slot's table cell is found by probing from
    // its home for the slot index itself (emptied cells do not end
    // that search), and each tier's chain is spliced onto the free
    // list. Which free slot a later insert reuses is unobservable —
    // LRU order, the probe table, and forEach() order depend on keys
    // and insertion order, never on slot indices.
    for (Tier &t : tiers_) {
        if (t.head == kNil)
            continue;
        for (std::uint16_t i = t.head; i != kNil; i = slots_[i].next) {
            std::uint32_t pos = hashOf(slots_[i].entry.key) & mask_;
            while (table_[pos] != i)
                pos = (pos + 1) & mask_;
            table_[pos] = kNil;
        }
        slots_[t.tail].next = freeHead_;
        freeHead_ = t.head;
        t.head = t.tail = kNil;
        t.size = 0;
    }
    size_ = 0;
}

Tlb::Tlb(CoreId core, unsigned l1_entries, unsigned l2_entries,
         unsigned huge_entries)
    : core_(core), base_(l1_entries, l2_entries), huge_(huge_entries, 0)
{
    if (l1_entries == 0 || l2_entries == 0 || huge_entries == 0)
        fatal("TLB levels need nonzero capacity");
}

void
Tlb::notifyInsert(const Entry &e)
{
    for (TlbListener *l : listeners_)
        l->onTlbInsert(core_, e.key.vpn, e.pfn, e.key.pcid);
}

void
Tlb::notifyRemove(const Entry &e)
{
    for (TlbListener *l : listeners_)
        l->onTlbRemove(core_, e.key.vpn, e.pfn, e.key.pcid);
}

TlbResult
Tlb::lookup(Vpn vpn, Pcid pcid, Pfn *pfn_out, bool *writable_out,
            bool *huge_out)
{
    if (huge_out)
        *huge_out = false;
    // The 2 MiB array covers whole regions; it wins when populated.
    if (huge_.size() != 0) {
        const std::uint16_t h = huge_.find(Key{hugeBaseOf(vpn), pcid});
        if (h != SlotArray::kNil) {
            huge_.promote(h);
            ++l1Hits_;
            const Entry &e = huge_.entry(h);
            if (pfn_out)
                *pfn_out = e.pfn + (vpn - hugeBaseOf(vpn));
            if (writable_out)
                *writable_out = e.writable;
            if (huge_out)
                *huge_out = true;
            return TlbResult::HitL1;
        }
    }
    const std::uint16_t i = base_.find(Key{vpn, pcid});
    if (i == SlotArray::kNil) {
        ++misses_;
        return TlbResult::Miss;
    }
    // An L2 hit promotes the entry into L1 and spills L1's LRU entry
    // to L2's MRU end. Membership does not change, so the listeners
    // hear nothing: L2 just gave up the promoted entry's place.
    const bool in_l1 = base_.tierOf(i) == 0;
    if (in_l1)
        ++l1Hits_;
    else
        ++l2Hits_;
    base_.promote(i);
    const Entry &e = base_.entry(i);
    if (pfn_out)
        *pfn_out = e.pfn;
    if (writable_out)
        *writable_out = e.writable;
    return in_l1 ? TlbResult::HitL1 : TlbResult::HitL2;
}

bool
Tlb::probe(Vpn vpn, Pcid pcid) const
{
    return base_.find(Key{vpn, pcid}) != SlotArray::kNil ||
           probeHuge(vpn, pcid);
}

bool
Tlb::probeHuge(Vpn vpn, Pcid pcid) const
{
    return huge_.find(Key{hugeBaseOf(vpn), pcid}) != SlotArray::kNil;
}

bool
Tlb::probePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
{
    const std::uint16_t i = base_.find(Key{vpn, pcid});
    if (i != SlotArray::kNil) {
        *pfn_out = base_.entry(i).pfn;
        return true;
    }
    return probeHugePfn(vpn, pcid, pfn_out);
}

bool
Tlb::probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
{
    const std::uint16_t h = huge_.find(Key{hugeBaseOf(vpn), pcid});
    if (h == SlotArray::kNil)
        return false;
    *pfn_out = huge_.entry(h).pfn;
    return true;
}

void
Tlb::insertHuge(Vpn base_vpn, Pfn base_pfn, Pcid pcid, bool writable)
{
    install(huge_, Entry{Key{hugeBaseOf(base_vpn), pcid}, base_pfn,
                         writable});
}

void
Tlb::insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable)
{
    install(base_, Entry{Key{vpn, pcid}, pfn, writable});
}

void
Tlb::install(SlotArray &array, const Entry &e)
{
    // The listener sees a remap as remove(old frame) + insert(new
    // frame); a permission-only change keeps the same frame and stays
    // quiet. A present key is refreshed in place and promoted, so it
    // never evicts: it already holds a slot.
    const std::uint16_t i = array.find(e.key);
    if (i != SlotArray::kNil) {
        Entry &cached = array.entry(i);
        const Entry old = cached;
        cached.pfn = e.pfn;
        cached.writable = e.writable;
        array.promote(i);
        if (old.pfn != e.pfn) {
            notifyRemove(old);
            notifyInsert(e);
        }
        return;
    }
    Entry victim;
    const bool had_victim = array.insert(e, &victim);
    notifyInsert(e);
    if (had_victim)
        notifyRemove(victim);
}

void
Tlb::drop(SlotArray &array, std::uint16_t i)
{
    const Entry removed = array.entry(i);
    array.erase(i);
    notifyRemove(removed);
}

void
Tlb::invalidatePage(Vpn vpn, Pcid pcid)
{
    const std::uint16_t i = base_.find(Key{vpn, pcid});
    if (i != SlotArray::kNil)
        drop(base_, i);
    // INVLPG drops whatever entry covers the address — including a
    // 2 MiB one.
    const std::uint16_t h = huge_.find(Key{hugeBaseOf(vpn), pcid});
    if (h != SlotArray::kNil)
        drop(huge_, h);
}

void
Tlb::invalidateRangeIn(unsigned tier, Vpn start_vpn, Vpn end_vpn,
                       Pcid pcid)
{
    // Adaptive, per tier: an munmap of a few pages should not pay a
    // scan of a 1024-entry L2, and a giant teardown should not probe
    // every VPN in the range. span == 0 means the range wrapped the
    // whole VPN space; treat it as wide.
    const std::uint64_t span = end_vpn - start_vpn + 1;
    if (span != 0 && span < base_.tierSize(tier)) {
        for (Vpn v = start_vpn;; ++v) {
            const std::uint16_t i = base_.find(Key{v, pcid});
            if (i != SlotArray::kNil && base_.tierOf(i) == tier)
                drop(base_, i);
            if (v == end_vpn)
                break;
        }
    } else {
        base_.removeMatching(
            tier,
            [&](const Entry &e) {
                return e.key.pcid == pcid && e.key.vpn >= start_vpn &&
                       e.key.vpn <= end_vpn;
            },
            [&](const Entry &e) { notifyRemove(e); });
    }
}

void
Tlb::invalidateRange(Vpn start_vpn, Vpn end_vpn, Pcid pcid)
{
    if (trace_)
        trace_->instantNow("hw", "tlb.inv_range", core_, kTraceNoMm,
                           end_vpn - start_vpn + 1);
    invalidateRangeIn(0, start_vpn, end_vpn, pcid);
    invalidateRangeIn(1, start_vpn, end_vpn, pcid);
    // Huge entries overlap the range if any of their 512 pages do.
    // Every huge key is span-aligned, so the overlapping bases are
    // exactly hugeBaseOf(start) .. hugeBaseOf(end).
    const Vpn hb_start = hugeBaseOf(start_vpn);
    const Vpn hb_end = hugeBaseOf(end_vpn);
    const std::uint64_t bases = (hb_end - hb_start) / kHugePageSpan + 1;
    if (bases < huge_.size()) {
        for (Vpn b = hb_start;; b += kHugePageSpan) {
            const std::uint16_t h = huge_.find(Key{b, pcid});
            if (h != SlotArray::kNil)
                drop(huge_, h);
            if (b == hb_end)
                break;
        }
    } else {
        huge_.removeMatching(
            0,
            [&](const Entry &e) {
                return e.key.pcid == pcid && e.key.vpn <= end_vpn &&
                       e.key.vpn + kHugePageSpan - 1 >= start_vpn;
            },
            [&](const Entry &e) { notifyRemove(e); });
    }
}

void
Tlb::invalidatePcid(Pcid pcid)
{
    if (trace_)
        trace_->instantNow("hw", "tlb.inv_pcid", core_, kTraceNoMm,
                           pcid);
    auto match = [&](const Entry &e) { return e.key.pcid == pcid; };
    auto notify = [&](const Entry &e) { notifyRemove(e); };
    base_.removeMatching(0, match, notify);
    base_.removeMatching(1, match, notify);
    huge_.removeMatching(0, match, notify);
}

void
Tlb::flushAll()
{
    ++flushes_;
    if (trace_)
        trace_->instantNow("hw", "tlb.flush_all", core_, kTraceNoMm,
                           size());
    if (!listeners_.empty()) {
        auto notify = [&](const Entry &e) { notifyRemove(e); };
        base_.forEach(0, notify);
        base_.forEach(1, notify);
        huge_.forEach(0, notify);
    }
    base_.clear();
    huge_.clear();
}

} // namespace latr
