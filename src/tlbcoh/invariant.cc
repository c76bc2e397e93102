#include "tlbcoh/invariant.hh"

#include <sstream>

#include "sim/logging.hh"

namespace latr
{

InvariantChecker::InvariantChecker(bool strict)
    : strict_(strict)
{
}

void
InvariantChecker::violation(const char *what, Pfn pfn)
{
    ++violations_;
    if (first_.empty()) {
        std::ostringstream os;
        os << what << " (pfn " << pfn << ", " << tlbRefs(pfn)
           << " live TLB refs)";
        first_ = os.str();
    }
    if (strict_)
        panic("reuse invariant violated: %s", first_.c_str());
}

void
InvariantChecker::onTlbInsert(CoreId, Vpn, Pfn pfn, Pcid)
{
    ++refs_[pfn];
    ++entries_;
}

void
InvariantChecker::onTlbRemove(CoreId, Vpn, Pfn pfn, Pcid)
{
    unsigned *refs = refs_.find(pfn);
    if (!refs || *refs == 0)
        panic("TLB remove of untracked pfn %llu",
              static_cast<unsigned long long>(pfn));
    if (--*refs == 0)
        refs_.erase(pfn);
    --entries_;
}

void
InvariantChecker::onFrameAlloc(Pfn pfn)
{
    if (tlbRefs(pfn) != 0)
        violation("frame allocated while still mapped in a TLB", pfn);
}

void
InvariantChecker::onFrameFree(Pfn pfn)
{
    if (tlbRefs(pfn) != 0)
        violation("frame freed while still mapped in a TLB", pfn);
}

unsigned
InvariantChecker::tlbRefs(Pfn pfn) const
{
    const unsigned *refs = refs_.find(pfn);
    return refs ? *refs : 0;
}

void
InvariantChecker::reset()
{
    refs_.clear();
    entries_ = 0;
    violations_ = 0;
    first_.clear();
}

} // namespace latr
