/**
 * @file
 * Pluggable protocol construction, keyed by one name. A protocol name
 * (`SystemConfig::protocol`) resolves here, and only here, to a family
 * builder plus the figure label:
 *
 *  - a family registered under its own name ("directory",
 *    "directory-zero", "hier", "perfect"), or
 *  - any PolicyRegistry name ("dst1", "dst-owner", a plugin's name),
 *    which runs the TokenCMP family with that performance policy,
 *    labeled "TokenCMP-<name>".
 *
 * Adding a protocol family no longer touches the system core: define a
 * `ProtocolBuilder` subclass, register it with a static
 * `ProtocolRegistrar`, and make sure its translation unit is linked
 * into the target (the build links the core as an object library so
 * self-registration is never dropped by the archiver). Adding a
 * TokenCMP variant only takes a PolicyRegistrar.
 */

#ifndef TOKENCMP_SYSTEM_PROTOCOL_REGISTRY_HH
#define TOKENCMP_SYSTEM_PROTOCOL_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hh"

namespace tokencmp {

class System;
class StatSet;
struct TokenGlobals;

/**
 * Per-System protocol instance. `build()` constructs the family's
 * controllers against the System under construction (registering them
 * with the network and binding sequencers through the System's
 * builder-facing API); the other hooks let the family report its
 * protocol-specific statistics and run end-of-run checks without the
 * System knowing any concrete controller type.
 */
class ProtocolBuilder
{
  public:
    virtual ~ProtocolBuilder() = default;

    /** Construct all controllers for `sys` (config via sys.config()). */
    virtual void build(System &sys) = 0;

    /** Harvest family-specific statistics after a run. */
    virtual void harvest(StatSet &out) const = 0;

    /** End-of-run invariant checks (e.g. token conservation). */
    virtual void verifyQuiescent(bool fatal_on_violation) const
    {
        (void)fatal_on_violation;
    }

    /** Family-wide run statistics (e.g. persistent requests issued). */
    virtual void exportRunStats(StatSet &out) const { (void)out; }

    /** Token substrate globals, or nullptr for non-token families. */
    virtual TokenGlobals *tokenGlobals() { return nullptr; }
};

/** What one protocol name resolves to. */
struct ProtocolEntry
{
    /** Row/figure label ("TokenCMP-dst1", "DirectoryCMP", ...). */
    std::string displayName;

    /** False when the family cannot run on the sharded kernel
     *  (PerfectL2's magic shared L2 bypasses the network). */
    bool shardable = true;

    /** Builds one System's instance of the family. */
    std::function<std::unique_ptr<ProtocolBuilder>()> make;
};

/**
 * Process-wide map from protocol names to families. Families
 * self-register at static-initialization time; the registry is
 * immutable once `main` begins, so concurrent `ExperimentRunner`
 * workers may resolve names without locking.
 */
class ProtocolRegistry
{
  public:
    /** Builds the family that runs every PolicyRegistry name, around
     *  that name's policy factory. */
    using PolicyFamily = std::function<std::unique_ptr<ProtocolBuilder>(
        PolicyRegistry::Factory)>;

    static ProtocolRegistry &instance();

    /** Register a family under `name`; panics on duplicates. */
    void registerFamily(const std::string &name, ProtocolEntry entry);

    /** Register the family every PolicyRegistry name selects; its
     *  label is `display_prefix` followed by the policy name. */
    void registerPolicyFamily(std::string display_prefix,
                              PolicyFamily family);

    /** Resolve `name`; fatal, listing every registered name, if it is
     *  neither a family nor a policy. */
    ProtocolEntry resolve(const std::string &name) const;

    bool known(const std::string &name) const;

    /** Every protocol name (families and policies), sorted. */
    std::vector<std::string> names() const;

  private:
    ProtocolRegistry() = default;
    std::map<std::string, ProtocolEntry> _families;
    std::string _policyPrefix;
    PolicyFamily _policyFamily;
};

/** Figure label of protocol `name` (resolve(name).displayName). */
std::string protocolName(const std::string &name);

/** Static self-registration helper for protocol family files. */
struct ProtocolRegistrar
{
    /** A family selected by one name. */
    ProtocolRegistrar(const char *name, ProtocolEntry entry)
    {
        ProtocolRegistry::instance().registerFamily(name,
                                                    std::move(entry));
    }

    /** The family selected by every PolicyRegistry name. */
    ProtocolRegistrar(const char *display_prefix,
                      ProtocolRegistry::PolicyFamily family)
    {
        ProtocolRegistry::instance().registerPolicyFamily(
            display_prefix, std::move(family));
    }
};

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_PROTOCOL_REGISTRY_HH
