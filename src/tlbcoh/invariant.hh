/**
 * @file
 * The reuse-invariant checker. The paper's correctness argument
 * (sections 3 and 4.2) rests on one invariant: *virtual and physical
 * pages are reused only after every TLB entry mapping them has been
 * invalidated on every core*. This checker mirrors all TLB contents
 * (via TlbListener) and the frame allocator's lifecycle (via
 * FrameListener) and flags any frame that returns to the free pool —
 * or is handed out again — while some core's TLB still translates to
 * it. Tests run millions of randomized operations under every policy
 * against this checker.
 */

#ifndef LATR_TLBCOH_INVARIANT_HH_
#define LATR_TLBCOH_INVARIANT_HH_

#include <cstdint>
#include <string>

#include "hw/tlb.hh"
#include "mem/frame_allocator.hh"
#include "sim/types.hh"
#include "vm/flat_page_map.hh"

namespace latr
{

/** Watches TLBs and the allocator; counts reuse-invariant breaches. */
class InvariantChecker : public TlbListener, public FrameListener
{
  public:
    /**
     * @param strict panic on the first violation instead of
     *        counting (useful under a debugger).
     */
    explicit InvariantChecker(bool strict = false);

    /// @name TlbListener
    /// @{
    void onTlbInsert(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) override;
    void onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) override;
    /// @}

    /// @name FrameListener
    /// @{
    void onFrameAlloc(Pfn pfn) override;
    void onFrameFree(Pfn pfn) override;
    /// @}

    /** Number of TLB entries (across all cores) mapping @p pfn. */
    unsigned tlbRefs(Pfn pfn) const;

    /** Total violations observed. */
    std::uint64_t violations() const { return violations_; }

    /** Human-readable description of the first violation, if any. */
    const std::string &firstViolation() const { return first_; }

    /** Total TLB entries currently mirrored. */
    std::uint64_t mirroredEntries() const { return entries_; }

    void reset();

  private:
    void violation(const char *what, Pfn pfn);

    bool strict_;
    /**
     * Live TLB references per frame; a frame leaves the map when its
     * count drops to 0. Open addressing: once the map has grown to
     * the peak number of mapped frames, the insert/remove churn of
     * TLB promotion and eviction allocates nothing.
     */
    FlatPageMap<unsigned> refs_;
    std::uint64_t entries_ = 0;
    std::uint64_t violations_ = 0;
    std::string first_;
};

} // namespace latr

#endif // LATR_TLBCOH_INVARIANT_HH_
