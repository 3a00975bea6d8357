#include "core/token_l2.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

TokenL2::TokenL2(SimContext &ctx, MachineID id, TokenGlobals &g,
                 std::uint64_t size_bytes, unsigned assoc)
    : TokenController(ctx, id, g), _array(size_bytes, assoc)
{
    if (id.type != MachineType::L2Bank)
        panic("TokenL2 requires an L2 machine id");
}

const TokenSt *
TokenL2::peek(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? &line->st : nullptr;
}

TokenL2::Line *
TokenL2::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;
    Line *victim = _array.victim(addr);
    if (victim->valid)
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
TokenL2::evictLine(Line *line)
{
    const Addr addr = line->tag;
    TokenSt &st = line->st;
    if (st.tokens > 0 || st.owner) {
        Msg m;
        m.addr = addr;
        m.tokens = st.tokens;
        m.owner = st.owner;
        m.hasData = st.owner;
        m.value = st.value;
        m.dirty = st.owner && st.dirty;

        const int active = ptable.activeFor(addr);
        if (active >= 0 &&
            ptable.entry(active).initiator != _id) {
            m.type = MsgType::TokResponse;
            m.dst = ptable.entry(active).initiator;
            m.requestor = m.dst;
        } else {
            m.type = MsgType::TokWriteback;
            m.dst = ctx.topo.homeOf(addr);
        }
        ++stats.writebacksOut;
        sendTok(std::move(m), g.params.l2Latency);
    }
    _array.invalidate(line);
}

void
TokenL2::mergeTokens(Line *line, const Msg &m)
{
    TokenSt &st = line->st;
    st.tokens += m.tokens;
    if (st.tokens > g.params.totalTokens)
        panic("L2 line exceeds total tokens");
    if (m.owner) {
        st.owner = true;
        st.dirty = m.dirty;
    }
    if (m.hasData) {
        st.value = m.value;
        st.validData = true;
    }
    _array.touch(line);
}

void
TokenL2::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        if (msg.requestor.cmp == _id.cmp)
            onLocalRequest(msg);
        else
            onExternalRequest(msg);
        return;
      case MsgType::TokWriteback:
      case MsgType::TokResponse:
        onWriteback(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistArbActivate:
        // Fresh activations (not stale or duplicate broadcasts) from
        // remote chips train the destination-set predictors: the
        // persistent requester is about to hold the block's tokens.
        if (applyPersistMsg(msg)) {
            if (msg.requestor.cmp != _id.cmp) {
                _policy->onPersistentActivate(msg.addr, msg.requestor,
                                              msg.isRead);
            }
            onPersistentTableChange(msg.addr);
        }
        return;
      case MsgType::PersistDeactivate:
      case MsgType::PersistArbDeactivate:
        handlePersistTableMsg(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
TokenL2::escalate(const Msg &m)
{
    // The policy chooses the inter-CMP fan-out. Under the default
    // broadcast policies that is every other CMP's responsible bank —
    // the home memory controller is reached through its own CMP's
    // memory interface (Figure 1), so the Section 8 example costs
    // exactly three inter-CMP request messages; only when *this* CMP
    // hosts the home does the request go straight down the local
    // memory link. Narrowing policies may target any subset: a
    // transient request that reaches nobody simply times out.
    ++stats.escalations;
    _destScratch.clear();
    _policy->destinationSet(m.addr, DestKind::L2Escalate,
                            m.type == MsgType::TokWriteReq, m.attempt,
                            _destScratch);
    Msg fwd = m;
    for (const MachineID &t : _destScratch) {
        fwd.dst = t;
        send(fwd, g.params.l2Latency);
    }
}

void
TokenL2::onLocalRequest(const Msg &m)
{
    ++stats.localReqs;
    _policy->onLocalRequest(m.addr, m.requestor);

    Line *line = _array.probe(m.addr);
    const bool is_write = m.type == MsgType::TokWriteReq;
    const int total = g.params.totalTokens;

    // An active persistent request owns all tokens for the block;
    // the requester's own escalation path will resolve the miss.
    if (ptable.activeFor(m.addr) >= 0)
        return;

    if (line == nullptr || line->st.tokens == 0) {
        escalate(m);
        return;
    }

    TokenSt &st = line->st;
    Msg r;
    r.type = MsgType::TokResponse;
    r.addr = m.addr;
    r.dst = m.requestor;
    r.requestor = m.requestor;

    if (is_write) {
        const bool full = st.tokens == total && st.validData;
        r.tokens = st.tokens;
        r.owner = st.owner;
        r.hasData = st.owner;
        r.value = st.value;
        r.dirty = st.owner && st.dirty;
        _array.invalidate(line);
        ++stats.localResponses;
        sendTok(std::move(r), g.params.l2Latency);
        if (!full)
            escalate(m);
        return;
    }

    // Read request.
    if (!st.validData) {
        escalate(m);
        return;
    }
    const bool migratory = g.params.migratory && st.owner &&
                           st.dirty && st.tokens == total;
    if (migratory || st.tokens == 1) {
        // Hand over everything we hold (for a single token this is
        // the only way to supply data without losing conservation).
        r.tokens = st.tokens;
        r.owner = st.owner;
        r.hasData = true;
        r.value = st.value;
        r.dirty = st.owner && st.dirty;
        _array.invalidate(line);
    } else {
        r.tokens = 1;
        r.hasData = true;
        r.value = st.value;
        st.tokens -= 1;
        _array.touch(line);
    }
    ++stats.localResponses;
    sendTok(std::move(r), g.params.l2Latency);
}

void
TokenL2::relayToL1s(const Msg &m)
{
    Msg fwd = m;
    const std::uint32_t mask = _policy->filterExternal(m.addr);

    for (unsigned p = 0; p < ctx.topo.procsPerCmp; ++p) {
        const MachineID d = ctx.topo.l1d(_id.cmp, p);
        const MachineID i = ctx.topo.l1i(_id.cmp, p);
        if (mask & (1u << l1SlotOf(ctx.topo, d))) {
            fwd.dst = d;
            send(fwd, g.params.l2Latency);
            ++stats.relaysToL1;
        } else {
            ++stats.filteredRelays;
        }
        if (mask & (1u << l1SlotOf(ctx.topo, i))) {
            fwd.dst = i;
            send(fwd, g.params.l2Latency);
            ++stats.relaysToL1;
        } else {
            ++stats.filteredRelays;
        }
    }
}

void
TokenL2::onExternalRequest(const Msg &m)
{
    ++stats.externalReqs;
    _policy->onExternalRequest(m.addr, m.requestor,
                               m.type == MsgType::TokWriteReq);

    // This CMP hosts the block's home memory controller: forward the
    // request down the local memory interface (Figure 1).
    if (ctx.topo.homeCmpOf(m.addr) == _id.cmp) {
        Msg fwd = m;
        fwd.dst = ctx.topo.homeOf(m.addr);
        send(fwd, g.params.l2Latency);
    }

    Line *line = _array.probe(m.addr);
    const bool is_write = m.type == MsgType::TokWriteReq;
    const int total = g.params.totalTokens;

    // Relay onto the on-chip network so local L1s can respond
    // directly to the remote requester — unless the L2's own state
    // proves no L1 can contribute: an owner-holding L2 means no L1 is
    // the owner (so none may answer an external read), and an L2
    // holding all T tokens leaves nothing for a write to collect.
    // (Never filtered for persistent requests; these are only hints.)
    const bool l2_covers =
        line != nullptr && ptable.activeFor(m.addr) < 0 &&
        (is_write ? line->st.tokens == total
                  : line->st.owner && line->st.validData);
    if (!l2_covers)
        relayToL1s(m);

    if (line == nullptr || line->st.tokens == 0)
        return;
    if (ptable.activeFor(m.addr) >= 0)
        return;

    TokenSt &st = line->st;

    Msg r;
    r.type = MsgType::TokResponse;
    r.addr = m.addr;
    r.dst = m.requestor;
    r.requestor = m.requestor;

    if (is_write) {
        r.tokens = st.tokens;
        r.owner = st.owner;
        r.hasData = st.owner;
        r.value = st.value;
        r.dirty = st.owner && st.dirty;
        _array.invalidate(line);
        ++stats.externalResponses;
        sendTok(std::move(r), g.params.l2Latency);
        return;
    }

    // External read: only the owner responds (Section 4), including
    // C tokens when possible to seed the requesting CMP.
    if (!st.owner || !st.validData)
        return;
    const bool migratory = g.params.migratory && st.dirty &&
                           st.tokens == total;
    const int k = migratory ? st.tokens
                            : std::min(g.params.cTokens, st.tokens);
    r.tokens = k;
    r.owner = (k == st.tokens);
    r.hasData = true;
    r.value = st.value;
    r.dirty = r.owner && st.dirty;
    st.tokens -= k;
    if (r.owner) {
        st.owner = false;
        st.dirty = false;
    }
    if (st.tokens == 0) {
        st.validData = false;
        _array.invalidate(line);
    } else {
        _array.touch(line);
    }
    ++stats.externalResponses;
    sendTok(std::move(r), g.params.l2Latency);
}

void
TokenL2::onWriteback(const Msg &m)
{
    receiveTok(m);
    if (m.tokens == 0 && !m.owner)
        return;
    ++stats.writebacksIn;
    _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    Line *line = allocLine(m.addr);
    mergeTokens(line, m);
    forwardPersistentTokens(m.addr);
}

void
TokenL2::onPersistentTableChange(Addr addr)
{
    forwardPersistentTokens(addr);
}

void
TokenL2::forwardPersistentTokens(Addr addr)
{
    const int active = ptable.activeFor(addr);
    if (active < 0)
        return;
    const auto &entry = ptable.entry(active);
    if (entry.initiator == _id)
        return;

    Line *line = _array.probe(addr);
    if (line == nullptr || (line->st.tokens == 0 && !line->st.owner))
        return;
    TokenSt &st = line->st;

    const PrForwardPlan plan =
        planPersistentForward(st, entry.isRead, true);
    if (plan.empty())
        return;

    Msg r;
    r.type = MsgType::TokResponse;
    r.addr = addr;
    r.dst = entry.initiator;
    r.requestor = entry.initiator;
    r.tokens = plan.sendTokens;
    r.owner = plan.sendOwner;
    r.hasData = plan.sendData;
    r.value = st.value;
    r.dirty = plan.sendOwner && st.dirty;

    st.tokens -= plan.sendTokens;
    if (plan.sendOwner) {
        st.owner = false;
        st.dirty = false;
    }
    if (st.tokens == 0) {
        st.validData = false;
        _array.invalidate(line);
    }
    sendTok(std::move(r), g.params.l2Latency);
}

} // namespace tokencmp
