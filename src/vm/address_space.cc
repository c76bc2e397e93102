#include "vm/address_space.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace latr
{

AddressSpace::AddressSpace(MmId id, Pcid pcid, FrameAllocator &frames)
    : id_(id), pcid_(pcid), frames_(frames)
{
}

AddressSpace::~AddressSpace() = default;

const Vma *
AddressSpace::findVma(Addr addr) const
{
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    return it->second.contains(addr) ? &it->second : nullptr;
}

Addr
AddressSpace::findFreeRange(std::uint64_t len,
                            std::uint64_t alignment) const
{
    // First fit in one forward walk: visit live VMAs and held-back
    // ranges together in start order and bump the candidate past each
    // one it overlaps. The candidate only grows, so every range
    // visited so far ends at or below it, overlapping held-back
    // ranges included; the first range starting at or beyond
    // candidate + len leaves the window free.
    auto align_up = [alignment](Addr a) {
        return (a + alignment - 1) & ~(alignment - 1);
    };
    Addr candidate = align_up(kMmapBase);
    auto vma = vmas_.begin();
    auto held = holdback_.begin();
    for (;;) {
        if (candidate + len > kUserVaLimit)
            return kAddrInvalid;
        Addr start, end;
        if (vma != vmas_.end() &&
            (held == holdback_.end() || vma->first <= held->first)) {
            start = vma->second.start;
            end = vma->second.end;
            ++vma;
        } else if (held != holdback_.end()) {
            start = held->first;
            end = held->second;
            ++held;
        } else {
            return candidate;
        }
        if (start >= candidate + len)
            return candidate;
        if (end > candidate)
            candidate = align_up(end);
    }
}

Addr
AddressSpace::mapRegion(std::uint64_t len, std::uint8_t prot,
                        bool file_backed, bool huge)
{
    if (len == 0)
        return kAddrInvalid;
    const std::uint64_t alignment = huge ? kHugePageSize : kPageSize;
    len = (len + alignment - 1) & ~(alignment - 1);
    Addr base = findFreeRange(len, alignment);
    if (base == kAddrInvalid)
        return kAddrInvalid;
    Vma vma;
    vma.start = base;
    vma.end = base + len;
    vma.prot = prot;
    vma.fileBacked = file_backed;
    vma.huge = huge;
    vmas_[base] = vma;
    return base;
}

void
AddressSpace::splitAt(Addr addr)
{
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin())
        return;
    --it;
    Vma &vma = it->second;
    if (!vma.contains(addr) || vma.start == addr)
        return;
    Vma tail = vma;
    tail.start = addr;
    vma.end = addr;
    vmas_[addr] = tail;
}

UnmapResult
AddressSpace::beginRegionOp(Addr addr, std::uint64_t len, Addr &lo,
                            Addr &hi)
{
    UnmapResult result;
    lo = pageAlignDown(addr);
    hi = pageAlignUp(addr + len);
    if (vmaRangeValid(lo, hi)) {
        result.ok = true;
        result.spanned = (hi - lo) >> kPageShift;
    }
    return result;
}

void
AddressSpace::unmapCollected(UnmapResult &result)
{
    // Unmap outside the forEach to keep its "no map/unmap" contract.
    // Sharer info is NOT cleared here: the coherence policy (ABIS)
    // reads it to compute the shootdown target set; the kernel
    // clears it once the policy has run.
    for (auto &page : result.pages) {
        Pte old = pt_.unmap(page.first);
        page.second = old.pfn;
        contentTags_.erase(page.first);
    }
}

UnmapResult
AddressSpace::munmapRegion(Addr addr, std::uint64_t len)
{
    Addr lo, hi;
    UnmapResult result = beginRegionOp(addr, len, lo, hi);
    if (!result.ok)
        return result;

    splitAt(lo);
    splitAt(hi);

    auto it = vmas_.lower_bound(lo);
    while (it != vmas_.end() && it->second.start < hi) {
        const Vma &vma = it->second;
        pt_.forEachPresent(pageOf(vma.start), pageOf(vma.end) - 1,
                           [&](Vpn vpn, Pte &) {
                               result.pages.emplace_back(vpn, 0);
                           });
        // Collect PMD mappings too — whether the VMA was created
        // huge or a region was promoted (khugepaged) later.
        for (Vpn base = hugeBaseOf(pageOf(vma.start));
             base < pageOf(vma.end); base += kHugePageSpan) {
            Pte old = pt_.unmapHuge(base);
            if (old.present())
                result.hugePages.emplace_back(base, old.pfn);
        }
        it = vmas_.erase(it);
    }
    unmapCollected(result);
    return result;
}

UnmapResult
AddressSpace::madviseRegion(Addr addr, std::uint64_t len)
{
    Addr lo, hi;
    UnmapResult result = beginRegionOp(addr, len, lo, hi);
    if (!result.ok)
        return result;

    for (auto it = vmas_.upper_bound(hi - 1); it != vmas_.begin();) {
        --it;
        const Vma &vma = it->second;
        if (vma.end <= lo)
            break;
        if (!vma.overlaps(lo, hi))
            continue;
        Vpn first = pageOf(std::max(vma.start, lo));
        Vpn last = pageOf(std::min(vma.end, hi)) - 1;
        pt_.forEachPresent(first, last, [&](Vpn vpn, Pte &) {
            result.pages.emplace_back(vpn, 0);
        });
        // Only whole 2 MiB regions inside the advised range are
        // dropped (a real THP kernel would split; we keep the
        // mapping for partial advice). Applies to huge VMAs and to
        // khugepaged-promoted regions alike.
        for (Vpn base = hugeBaseOf(first);
             base + kHugePageSpan <= last + 1;
             base += kHugePageSpan) {
            if (base < first)
                continue;
            Pte old = pt_.unmapHuge(base);
            if (old.present())
                result.hugePages.emplace_back(base, old.pfn);
        }
    }
    unmapCollected(result);
    return result;
}

UnmapResult
AddressSpace::mprotectRegion(Addr addr, std::uint64_t len,
                             std::uint8_t prot)
{
    Addr lo, hi;
    UnmapResult result = beginRegionOp(addr, len, lo, hi);
    if (!result.ok)
        return result;

    splitAt(lo);
    splitAt(hi);

    for (auto it = vmas_.lower_bound(lo);
         it != vmas_.end() && it->second.start < hi; ++it) {
        Vma &vma = it->second;
        vma.prot = prot;
        pt_.forEachPresent(
            pageOf(vma.start), pageOf(vma.end) - 1,
            [&](Vpn vpn, Pte &pte) {
                if (prot & kProtWrite)
                    pte.flags |= kPteWrite;
                else
                    pte.flags &= static_cast<std::uint8_t>(~kPteWrite);
                result.pages.emplace_back(vpn, pte.pfn);
            });
    }
    return result;
}

Addr
AddressSpace::mremapRegion(Addr old_addr, std::uint64_t old_len,
                           std::uint64_t new_len, UnmapResult *moved_out)
{
    Addr lo, hi;
    UnmapResult moved = beginRegionOp(old_addr, old_len, lo, hi);
    if (!moved.ok)
        return kAddrInvalid;
    new_len = pageAlignUp(new_len);

    const Vma *vma = findVma(lo);
    if (!vma || vma->end < hi)
        return kAddrInvalid; // must lie within one mapping

    std::uint8_t prot = vma->prot;
    bool file_backed = vma->fileBacked;

    Addr new_base = findFreeRange(new_len);
    if (new_base == kAddrInvalid)
        return kAddrInvalid;

    // Collect and move present pages that fit the new size.
    pt_.forEachPresent(pageOf(lo), pageOf(hi) - 1,
                       [&](Vpn vpn, Pte &) {
                           moved.pages.emplace_back(vpn, 0);
                       });
    for (auto &page : moved.pages) {
        Pte old = pt_.unmap(page.first);
        page.second = old.pfn;
        clearSharers(page.first);
        std::uint64_t offset = page.first - pageOf(lo);
        if (offset < (new_len >> kPageShift)) {
            pt_.map(pageOf(new_base) + offset, old.pfn,
                    static_cast<std::uint8_t>(old.flags & ~kPtePresent));
        } else {
            // Shrunk away: the frame is released by the caller via
            // the moved-pages list, exactly like an unmap.
        }
    }

    // Replace the VMA range.
    splitAt(lo);
    splitAt(hi);
    for (auto it = vmas_.lower_bound(lo);
         it != vmas_.end() && it->second.start < hi;)
        it = vmas_.erase(it);
    Vma nv;
    nv.start = new_base;
    nv.end = new_base + new_len;
    nv.prot = prot;
    nv.fileBacked = file_backed;
    vmas_[new_base] = nv;

    if (moved_out)
        *moved_out = std::move(moved);
    return new_base;
}

UnmapResult
AddressSpace::markCowRegion(Addr addr, std::uint64_t len)
{
    Addr lo, hi;
    UnmapResult result = beginRegionOp(addr, len, lo, hi);
    if (!result.ok)
        return result;
    pt_.forEachPresent(pageOf(lo), pageOf(hi) - 1,
                       [&](Vpn vpn, Pte &pte) {
                           pte.flags |= kPteCow;
                           pte.flags &=
                               static_cast<std::uint8_t>(~kPteWrite);
                           result.pages.emplace_back(vpn, pte.pfn);
                       });
    return result;
}

void
AddressSpace::holdbackRange(Addr start, Addr end)
{
    if (start >= end)
        panic("holdback of empty range");
    holdback_.emplace(start, end);
}

void
AddressSpace::releaseHoldback(Addr start, Addr end)
{
    auto [it, last] = holdback_.equal_range(start);
    for (; it != last; ++it) {
        if (it->second == end) {
            holdback_.erase(it);
            return;
        }
    }
    panic("release of a range that is not held back");
}

bool
AddressSpace::rangeHeldBack(Addr start, Addr end) const
{
    // Held ranges may overlap, so a range that starts early can
    // reach past later ones: scan every range starting below end.
    for (auto it = holdback_.begin();
         it != holdback_.end() && it->first < end; ++it)
        if (it->second > start)
            return true;
    return false;
}

std::uint64_t
AddressSpace::heldBackBytes() const
{
    // Bytes in the union of the held ranges, which may overlap.
    std::uint64_t total = 0;
    Addr covered = 0;
    for (const auto &[start, end] : holdback_) {
        if (end > covered) {
            total += end - std::max(start, covered);
            covered = end;
        }
    }
    return total;
}

void
AddressSpace::setContentTag(Vpn vpn, std::uint64_t tag)
{
    if (tag == 0)
        contentTags_.erase(vpn);
    else
        contentTags_[vpn] = tag;
}

std::uint64_t
AddressSpace::contentTag(Vpn vpn) const
{
    const std::uint64_t *tag = contentTags_.find(vpn);
    return tag ? *tag : 0;
}

void
AddressSpace::clearContentTag(Vpn vpn)
{
    contentTags_.erase(vpn);
}

void
AddressSpace::noteAccess(Vpn vpn, CoreId core)
{
    sharers_[vpn].set(core);
}

CpuMask
AddressSpace::sharersOf(Vpn vpn) const
{
    const CpuMask *mask = sharers_.find(vpn);
    return mask ? *mask : CpuMask();
}

void
AddressSpace::clearSharers(Vpn vpn)
{
    sharers_.erase(vpn);
}

} // namespace latr
