#include "system/protocol_registry.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

ProtocolRegistry &
ProtocolRegistry::instance()
{
    static ProtocolRegistry reg;
    return reg;
}

void
ProtocolRegistry::registerFamily(const std::string &name,
                                 ProtocolEntry entry)
{
    if (_families.count(name) != 0)
        panic("protocol %s registered twice", name.c_str());
    _families[name] = std::move(entry);
}

void
ProtocolRegistry::registerPolicyFamily(std::string display_prefix,
                                       PolicyFamily family)
{
    if (_policyFamily)
        panic("policy-selected protocol family registered twice");
    _policyPrefix = std::move(display_prefix);
    _policyFamily = std::move(family);
}

ProtocolEntry
ProtocolRegistry::resolve(const std::string &name) const
{
    const PolicyRegistry &policies = PolicyRegistry::instance();
    auto it = _families.find(name);
    if (it != _families.end()) {
        if (policies.known(name)) {
            panic("protocol name '%s' is both a family and a "
                  "performance policy", name.c_str());
        }
        return it->second;
    }
    if (!_policyFamily || !policies.known(name)) {
        std::string have;
        for (const std::string &n : names())
            have += (have.empty() ? "" : ", ") + n;
        fatal("unknown protocol '%s' (registered: %s); was its "
              "translation unit linked in?",
              name.c_str(), have.c_str());
    }
    return {_policyPrefix + name, true,
            [family = _policyFamily, policy = policies.factory(name)]() {
                return family(policy);
            }};
}

bool
ProtocolRegistry::known(const std::string &name) const
{
    return _families.count(name) != 0 ||
           (_policyFamily && PolicyRegistry::instance().known(name));
}

std::vector<std::string>
ProtocolRegistry::names() const
{
    std::vector<std::string> out;
    if (_policyFamily)
        out = PolicyRegistry::instance().names();
    for (const auto &[name, entry] : _families) {
        (void)entry;
        out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
protocolName(const std::string &name)
{
    return ProtocolRegistry::instance().resolve(name).displayName;
}

} // namespace tokencmp
