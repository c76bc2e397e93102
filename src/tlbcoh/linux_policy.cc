#include "tlbcoh/linux_policy.hh"

namespace latr
{

LinuxPolicy::LinuxPolicy(PolicyEnv env)
    : TlbCoherencePolicy(std::move(env))
{
}

PolicyCapabilities
LinuxPolicy::capabilities() const
{
    PolicyCapabilities caps;
    caps.asynchronous = false;
    caps.nonIpiBased = false;
    caps.noRemoteCoreInvolvement = false;
    caps.noHardwareChanges = true;
    caps.lazyFreeCapable = false;
    caps.lazyMigrationCapable = false;
    return caps;
}

} // namespace latr
