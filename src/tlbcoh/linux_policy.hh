/**
 * @file
 * The stock Linux 4.10 TLB-shootdown baseline (paper section 2.1):
 * every page-table change triggers a synchronous IPI broadcast to all
 * cores where the mm is resident; the initiator stalls until every
 * ACK arrives; freed pages return to the allocator only then.
 * Includes the two stock optimizations the paper describes: batched
 * invalidation (a single IPI covers the whole range, and ranges past
 * the 33-entry threshold become full flushes) and lazy idle-mode TLBs
 * (idle cores drop out of the residency mask — modeled in the
 * scheduler).
 */

#ifndef LATR_TLBCOH_LINUX_POLICY_HH_
#define LATR_TLBCOH_LINUX_POLICY_HH_

#include "tlbcoh/policy.hh"

namespace latr
{

/** Synchronous IPI shootdowns, as in Linux 4.10. */
class LinuxPolicy : public TlbCoherencePolicy
{
  public:
    explicit LinuxPolicy(PolicyEnv env);

    const char *name() const override { return "Linux"; }
    PolicyKind kind() const override { return PolicyKind::LinuxSync; }
    PolicyCapabilities capabilities() const override;

    // onFreePages, onNumaSample and onSyncShootdown: the base
    // class's synchronous defaults.
};

} // namespace latr

#endif // LATR_TLBCOH_LINUX_POLICY_HH_
