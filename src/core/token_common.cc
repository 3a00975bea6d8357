#include "core/token_common.hh"

namespace tokencmp {

std::unique_ptr<PerformancePolicy>
TokenGlobals::makePolicy(SimContext &ctx, const MachineID &self) const
{
    PolicyEnv env;
    env.self = self;
    env.topo = ctx.topo;
    env.params = &params;
    env.ctx = &ctx;
    return policy(env);
}

std::vector<MachineID>
localL1Targets(const Topology &topo, unsigned cmp,
               const MachineID &exclude)
{
    std::vector<MachineID> out;
    out.reserve(2 * topo.procsPerCmp);
    for (unsigned p = 0; p < topo.procsPerCmp; ++p) {
        for (MachineID id : {topo.l1d(cmp, p), topo.l1i(cmp, p)}) {
            if (id != exclude)
                out.push_back(id);
        }
    }
    return out;
}

std::vector<MachineID>
remoteL2Targets(const Topology &topo, Addr addr, unsigned cmp)
{
    std::vector<MachineID> out;
    out.reserve(topo.numCmps - 1);
    for (unsigned c = 0; c < topo.numCmps; ++c) {
        if (c != cmp)
            out.push_back(topo.l2BankFor(c, addr));
    }
    return out;
}

std::vector<MachineID>
persistTargets(const Topology &topo, Addr addr, const MachineID &exclude)
{
    std::vector<MachineID> out;
    out.reserve(topo.numCmps * (2 * topo.procsPerCmp + 1) + 1);
    for (unsigned c = 0; c < topo.numCmps; ++c) {
        for (unsigned p = 0; p < topo.procsPerCmp; ++p) {
            for (MachineID id : {topo.l1d(c, p), topo.l1i(c, p)}) {
                if (id != exclude)
                    out.push_back(id);
            }
        }
        MachineID bank = topo.l2BankFor(c, addr);
        if (bank != exclude)
            out.push_back(bank);
    }
    MachineID home = topo.homeOf(addr);
    if (home != exclude)
        out.push_back(home);
    return out;
}

PrForwardPlan
planPersistentForward(const TokenSt &line, bool is_read, bool is_cache)
{
    PrForwardPlan plan;
    if (line.tokens <= 0)
        return plan;

    if (!is_cache) {
        // Memory gives up everything; data rides with the owner token.
        plan.sendTokens = line.tokens;
        plan.sendOwner = line.owner;
        plan.sendData = line.owner;
        return plan;
    }

    if (is_read) {
        // Keep one token: read permission is never stolen from other
        // readers. The owner transfers the owner token (and data) and
        // keeps a plain token; an owner holding only the owner token
        // gives everything up, since data must always travel with a
        // token — a data-only message could be overtaken by a write
        // and deliver stale data, whereas a message carrying a token
        // blocks every writer from assembling all T until delivery.
        if (line.owner) {
            plan.sendTokens = line.tokens == 1 ? 1 : line.tokens - 1;
            plan.sendOwner = true;
            plan.sendData = true;
        } else {
            plan.sendTokens = line.tokens - 1;
            plan.sendOwner = false;
            plan.sendData = false;
            if (plan.sendTokens <= 0)
                return PrForwardPlan{};
        }
    } else {
        plan.sendTokens = line.tokens;
        plan.sendOwner = line.owner;
        plan.sendData = line.owner;
    }
    return plan;
}

bool
TokenController::applyPersistMsg(const Msg &m)
{
    const unsigned proc = m.prio;
    const MsgSeq seq = m.reqId;

    switch (m.type) {
      case MsgType::PersistActivate:
      case MsgType::PersistArbActivate:
        // Ignore an activate that has already been deactivated, or
        // that is older than the entry we hold (the broadcasts travel
        // on an unordered network).
        if (seq <= _lastDeactSeq.at(proc))
            return false;
        if (ptable.valid(proc) && ptable.entry(proc).seq >= seq)
            return false;
        ptable.insert(proc, m.addr, m.isRead, m.requestor, seq);
        return true;

      case MsgType::PersistDeactivate:
      case MsgType::PersistArbDeactivate:
        _lastDeactSeq.at(proc) =
            std::max(_lastDeactSeq.at(proc), seq);
        if (ptable.valid(proc) && ptable.entry(proc).seq <= seq) {
            ptable.erase(proc);
            return true;
        }
        return false;

      default:
        panic("applyPersistMsg: unexpected %s", msgTypeName(m.type));
    }
}

void
TokenController::handlePersistTableMsg(const Msg &m)
{
    if (applyPersistMsg(m))
        onPersistentTableChange(m.addr);
}

} // namespace tokencmp
