#include "hier/hier_shim.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

HierShim::HierShim(SimContext &ctx, MachineID id, TokenGlobals &tg,
                   DirGlobals &dg, unsigned residency_cap)
    : TokenController(ctx, id, tg), dg(dg), _residencyCap(residency_cap)
{
    if (id.type != MachineType::L2Bank)
        panic("HierShim requires an L2 machine id");
}

HierShim::Blk &
HierShim::ensureBlock(Addr addr)
{
    const Addr blk = blockAlign(addr);
    auto it = _blocks.find(blk);
    if (it == _blocks.end()) {
        Blk b;
        // The CMP's private token space materializes here: all T
        // tokens (and the owner token) at the shim, but *no* data —
        // data authority at chip I is the home store, reached by a
        // directory fetch.
        b.addr = blk;
        b.tokens = g.params.totalTokens;
        b.owner = true;
        it = _blocks.emplace(blk, b).first;
        g.auditor.initBlock(blk);
    }
    _residency.touch(it->second);
    return it->second;
}

int
HierShim::tokensHeld(Addr addr) const
{
    auto it = _blocks.find(blockAlign(addr));
    return it == _blocks.end() ? -1 : it->second.tokens;
}

bool
HierShim::ownerHeld(Addr addr) const
{
    auto it = _blocks.find(blockAlign(addr));
    return it != _blocks.end() && it->second.owner;
}

ChipState
HierShim::peekChip(Addr addr) const
{
    auto it = _blocks.find(blockAlign(addr));
    return it == _blocks.end() ? ChipState::I : it->second.chip;
}

void
HierShim::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        onLocalTransient(msg);
        return;
      case MsgType::TokWriteback:
      case MsgType::TokResponse:
        onTokensIn(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistDeactivate:
        ensureBlock(msg.addr);
        touchPersistent(msg.prio);
        handlePersistTableMsg(msg);
        return;
      case MsgType::PersistArbRequest:
        onArbRequest(msg);
        return;
      case MsgType::PersistArbDone:
        onArbDone(msg);
        return;
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::Inv:
        startExternal(msg);
        return;
      case MsgType::Data:
      case MsgType::DataEx:
      case MsgType::AckCount:
        onHomeData(msg);
        return;
      case MsgType::InvAck:
        onInvAck(msg);
        return;
      case MsgType::WbGrant:
        onWbGrant(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

// ---------------------------------------------------------------------
// Intra half: transient serving (TokenMem role, gated by chip rights)
// ---------------------------------------------------------------------

void
HierShim::onLocalTransient(const Msg &m)
{
    if (m.requestor.cmp != _id.cmp)
        panic("%s: transient from remote CMP", _id.toString().c_str());
    Blk &b = ensureBlock(m.addr);
    if (ptable.activeFor(m.addr) >= 0)
        return;  // tokens are reserved for the persistent winner
    if (b.recall != Recall::None || b.extPending || b.wbPending)
        return;  // external request first; the L1 will retry

    const bool is_write = m.type == MsgType::TokWriteReq;
    const Addr addr = blockAlign(m.addr);

    switch (b.chip) {
      case ChipState::I:
        // No chip rights: trigger a directory fetch, stay silent.
        startFetch(addr, b, m.requestor, is_write);
        return;
      case ChipState::S:
      case ChipState::O:
        if (is_write) {
            // Upgrade to M before any token that could complete a
            // write leaves the shim (anchor invariant).
            startFetch(addr, b, m.requestor, true);
            return;
        }
        serveLocal(addr, b, m.requestor, false);
        return;
      case ChipState::M:
        serveLocal(addr, b, m.requestor, is_write);
        return;
    }
}

bool
HierShim::serveLocal(Addr addr, Blk &b, const MachineID &requestor,
                     bool is_write)
{
    Msg r;
    r.type = MsgType::TokResponse;
    r.addr = addr;
    r.dst = requestor;
    r.requestor = requestor;

    if (b.chip == ChipState::M) {
        // Full TokenMem semantics: the chip owns the block outright.
        if (is_write) {
            if (b.tokens == 0 && !b.owner)
                return false;
            r.tokens = b.tokens;
            r.owner = b.owner;
            r.hasData = b.owner;
            r.value = b.value;
            r.dirty = b.owner && b.dirty;
            if (b.owner && !b.validData)
                panic("chip-M owner token without data at shim");
            b.tokens = 0;
            if (b.owner) {
                b.owner = false;
                b.validData = false;
                b.dirty = false;
            }
            b.chipStored = true;
        } else {
            if (!b.owner || b.tokens == 0)
                return false;  // some local L1 owns; it will serve
            if (!b.validData)
                panic("chip-M owner token without data at shim");
            const int k = b.tokens == g.params.totalTokens
                              ? b.tokens
                              : std::min(g.params.cTokens, b.tokens);
            r.tokens = k;
            r.owner = (k == b.tokens);
            r.hasData = true;
            r.value = b.value;
            r.dirty = r.owner && b.dirty;
            b.tokens -= k;
            if (r.owner) {
                b.owner = false;
                b.validData = false;
                b.dirty = false;
            }
        }
    } else if (b.chip == ChipState::S || b.chip == ChipState::O) {
        // Anchor invariant: the owner token never leaves below M, so
        // only plain tokens (plus a data copy) may be handed out.
        if (is_write || b.tokens < 2)
            return false;
        if (!b.owner || !b.validData)
            panic("chip-%s shim lost its anchor",
                  chipStateName(b.chip));
        r.tokens = std::min(g.params.cTokens, b.tokens - 1);
        r.hasData = true;
        r.value = b.value;
        b.tokens -= r.tokens;
    } else {
        return false;
    }

    ++stats.localServes;
    sendTok(std::move(r), g.params.l2Latency);
    return true;
}

void
HierShim::onTokensIn(const Msg &m)
{
    Blk &b = ensureBlock(m.addr);
    receiveTok(m);
    if (m.tokens == 0 && !m.owner)
        return;
    _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    b.tokens += m.tokens;
    if (b.tokens > g.params.totalTokens)
        panic("%s exceeds the CMP's total tokens",
              _id.toString().c_str());
    if (m.hasData) {
        b.value = m.value;
        b.validData = true;
    }
    if (m.owner) {
        if (!m.hasData)
            panic("owner token arrived at shim without data");
        b.owner = true;
        b.dirty = m.dirty;
    }
    if (b.recall != Recall::None)
        checkRecallDone(blockAlign(m.addr), b);
    forwardPersistentTokens(m.addr);
}

void
HierShim::onPersistentTableChange(Addr addr)
{
    forwardPersistentTokens(addr);
}

void
HierShim::forwardPersistentTokens(Addr addr)
{
    const int active = ptable.activeFor(addr);
    if (active < 0)
        return;
    const auto &entry = ptable.entry(unsigned(active));

    auto it = _blocks.find(blockAlign(addr));
    if (it == _blocks.end())
        return;
    Blk &b = ensureBlock(addr);
    // While servicing an external request the shim is a pure token
    // sink; completion re-invokes this hook.
    if (b.recall != Recall::None || b.extPending || b.wbPending)
        return;

    if (b.chip == ChipState::I) {
        // The persistent winner needs rights the chip does not hold.
        startFetch(blockAlign(addr), b, entry.initiator,
                   !entry.isRead);
        return;
    }

    if (b.chip == ChipState::M) {
        if (b.tokens == 0 && !b.owner)
            return;
        // Memory-role plan: give everything (chip M may shed the
        // owner token).
        TokenSt pseudo;
        pseudo.tokens = static_cast<TokenCount>(b.tokens);
        pseudo.owner = b.owner;
        pseudo.validData = b.owner;
        const PrForwardPlan plan =
            planPersistentForward(pseudo, entry.isRead, false);
        if (plan.empty())
            return;
        Msg r;
        r.type = MsgType::TokResponse;
        r.addr = blockAlign(addr);
        r.dst = entry.initiator;
        r.requestor = entry.initiator;
        r.tokens = plan.sendTokens;
        r.owner = plan.sendOwner;
        r.hasData = plan.sendData;
        r.value = b.value;
        r.dirty = plan.sendOwner && b.dirty;
        b.tokens -= plan.sendTokens;
        if (plan.sendOwner) {
            b.owner = false;
            b.validData = false;
            b.dirty = false;
        }
        if (!entry.isRead)
            b.chipStored = true;
        sendTok(std::move(r), g.params.l2Latency);
        return;
    }

    // Chip S/O: the anchor (owner token) stays; spare plain tokens
    // flow, and a persistent *read* is additionally owed data — even
    // with no spare token to carry it (sibling L1s supply the tokens,
    // only the shim holds the chip's authoritative copy).
    if (!b.owner || !b.validData)
        panic("chip-%s shim lost its anchor", chipStateName(b.chip));
    const int spare = b.tokens - 1;
    if (entry.isRead) {
        const bool served = b.prServedPrio == std::uint8_t(active) &&
                            b.prServedSeq == entry.seq;
        if (spare <= 0 && served)
            return;
        b.prServedPrio = std::uint8_t(active);
        b.prServedSeq = entry.seq;
        Msg r;
        r.type = MsgType::TokResponse;
        r.addr = blockAlign(addr);
        r.dst = entry.initiator;
        r.requestor = entry.initiator;
        r.tokens = std::max(spare, 0);
        r.hasData = true;
        r.value = b.value;
        b.tokens -= r.tokens;
        sendTok(std::move(r), g.params.l2Latency);
        return;
    }
    // Persistent write: shed spare tokens, upgrade for the rest.
    if (spare > 0) {
        Msg r;
        r.type = MsgType::TokResponse;
        r.addr = blockAlign(addr);
        r.dst = entry.initiator;
        r.requestor = entry.initiator;
        r.tokens = spare;
        b.tokens -= spare;
        sendTok(std::move(r), g.params.l2Latency);
    }
    startFetch(blockAlign(addr), b, entry.initiator, true);
}

// ---------------------------------------------------------------------
// Inter half: home fetches (the DirL2 home-transaction role)
// ---------------------------------------------------------------------

void
HierShim::startFetch(Addr addr, Blk &b, const MachineID &demand,
                     bool is_write)
{
    if (b.fetch != Fetch::None || b.wbPending || b.extPending ||
        b.recall != Recall::None) {
        return;  // one outstanding; demand re-arrives via retries
    }
    b.fetch = is_write ? Fetch::GetX : Fetch::GetS;
    b.fetchHasData = false;
    b.fetchExclusive = false;
    b.fetchDirty = false;
    b.fetchValue = 0;
    b.acksNeeded = -1;
    b.acksGot = 0;
    b.fetchFor = demand;
    b.fetchForWrite = is_write;
    b.fetchForValid = true;

    if (b.chip == ChipState::O) {
        // Owner upgrade may complete on an AckCount alone: preset the
        // data we already hold (cleared if a racing Fwd-GetX takes it).
        b.fetchHasData = true;
        b.fetchValue = b.value;
        b.fetchDirty = b.dirty;
    }

    Msg q;
    q.type = is_write ? MsgType::GetX : MsgType::GetS;
    q.addr = addr;
    q.dst = ctx.topo.homeOf(addr);
    q.requestor = _id;
    ++stats.fetches;
    send(std::move(q), dg.params.l2Latency);
}

void
HierShim::onHomeData(const Msg &m)
{
    Blk &b = ensureBlock(m.addr);
    if (b.fetch == Fetch::None)
        panic("%s: home response without fetch",
              _id.toString().c_str());
    if (b.recall != Recall::None || b.extPending)
        panic("home response while servicing an external request");

    if (m.type == MsgType::AckCount) {
        b.acksNeeded = m.acks;
    } else {
        b.fetchHasData = true;
        b.fetchValue = m.value;
        b.fetchDirty = m.dirty;
        if (m.type == MsgType::DataEx)
            b.fetchExclusive = true;
        if (b.acksNeeded < 0)
            b.acksNeeded = m.acks;
    }
    checkFetchComplete(blockAlign(m.addr), b);
}

void
HierShim::onInvAck(const Msg &m)
{
    if (m.src.cmp == _id.cmp && m.src.type != MachineType::Mem)
        panic("local InvAck at shim (recalls use token responses)");
    Blk &b = ensureBlock(m.addr);
    if (b.fetch == Fetch::None)
        panic("%s: InvAck without fetch", _id.toString().c_str());
    ++b.acksGot;
    checkFetchComplete(blockAlign(m.addr), b);
}

void
HierShim::checkFetchComplete(Addr addr, Blk &b)
{
    if (b.fetch == Fetch::None)
        return;
    if (!b.fetchHasData || b.acksNeeded < 0 ||
        b.acksGot < b.acksNeeded) {
        return;
    }
    const bool excl = b.fetchExclusive || b.fetch == Fetch::GetX;
    const bool upgrade = b.chip != ChipState::I;
    b.fetch = Fetch::None;

    // The shim holds the intra owner token in every fetch-start state
    // (I, S and O all anchor it), so it is the intra data authority:
    // adopt the fetched value.
    if (!b.owner)
        panic("fetch completed without the intra owner token home");
    b.value = b.fetchValue;
    b.validData = true;
    b.dirty = b.fetchDirty;
    if (excl) {
        b.chip = ChipState::M;
        if (b.fetchForWrite)
            b.chipStored = true;
    } else {
        b.chip = ChipState::S;
    }
    if (upgrade)
        ++stats.fetchUpgrades;

    Msg u;
    u.type = excl ? MsgType::UnblockEx : MsgType::Unblock;
    u.addr = addr;
    u.dst = ctx.topo.homeOf(addr);
    u.requestor = _id;
    send(std::move(u), dg.params.l2Latency);

    _residency.enter(b);

    // Serve the demand that triggered the fetch without waiting for a
    // retry round; a persistent winner outranks it.
    const MachineID demand = b.fetchFor;
    const bool demand_write = b.fetchForWrite;
    const bool demand_valid = b.fetchForValid;
    b.fetchForValid = false;
    if (ptable.activeFor(addr) >= 0)
        forwardPersistentTokens(addr);
    else if (demand_valid)
        serveLocal(addr, b, demand, demand_write);

    maybeEvict(b);
}

// ---------------------------------------------------------------------
// External directory requests (Fwd-GetS/GetX, Inv) and token recalls
// ---------------------------------------------------------------------

void
HierShim::startExternal(const Msg &m)
{
    const Addr addr = blockAlign(m.addr);
    Blk &b = ensureBlock(addr);

    switch (m.type) {
      case MsgType::Inv:     ++stats.extInvs; break;
      case MsgType::FwdGetS: ++stats.extFwdGetS; break;
      default:               ++stats.extFwdGetX; break;
    }

    // Mid-writeback: serve from the buffer (DirL2's race handling).
    if (b.wbPending) {
        Msg r;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        if (m.type == MsgType::Inv) {
            r.type = MsgType::InvAck;
            r.acks = 1;
        } else {
            r.hasData = true;
            r.value = b.wbValue;
            r.dirty = b.wbDirty;
            r.acks = m.acks;
            if (m.type == MsgType::FwdGetX) {
                r.type = MsgType::DataEx;
                b.wbCancelled = true;
            } else {
                r.type = MsgType::Data;
                r.dirty = false;
            }
        }
        send(std::move(r), dg.params.l2Latency);
        return;
    }

    if (b.extPending)
        panic("home forwarded two requests for one block");
    b.ext = m;
    b.extPending = true;
    tryFinishExternal(addr, b);
}

void
HierShim::tryFinishExternal(Addr addr, Blk &b)
{
    const Msg m = b.ext;
    const int total = g.params.totalTokens;

    if (m.type == MsgType::Inv) {
        if (b.chip == ChipState::M || b.chip == ChipState::O)
            panic("home invalidated the owner chip");
        if (b.tokens != total) {
            startRecall(addr, b, Recall::Full);
            return;
        }
        // All intra tokens home (always true at chip I): ack and drop.
        b.extPending = false;
        b.chip = ChipState::I;
        b.validData = false;
        b.dirty = false;
        b.chipStored = false;
        _residency.leave(b);
        Msg r;
        r.type = MsgType::InvAck;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = _id;
        r.acks = 1;
        send(std::move(r), dg.params.l2Latency);
        forwardPersistentTokens(addr);
        return;
    }

    if (b.chip == ChipState::I)
        panic("%s: forward but chip holds nothing",
              _id.toString().c_str());

    if (m.type == MsgType::FwdGetS) {
        // m.owner = home saw no other sharers (migratory permitted).
        const bool mig = dg.params.migratory && m.owner &&
                         b.chip == ChipState::M && b.chipStored;
        if (!mig) {
            if (!b.owner || !b.validData) {
                startRecall(addr, b, Recall::Down);
                return;
            }
            b.extPending = false;
            b.chip = ChipState::O;
            Msg r;
            r.type = MsgType::Data;
            r.addr = addr;
            r.dst = m.requestor;
            r.requestor = m.requestor;
            r.hasData = true;
            r.value = b.value;
            r.dirty = false;  // we keep the dirty owner copy (O)
            r.acks = m.acks;
            send(std::move(r), dg.params.l2Latency);
            forwardPersistentTokens(addr);
            return;
        }
        if (b.tokens != total) {
            startRecall(addr, b, Recall::Full);
            return;
        }
        ++stats.migratoryChip;
        // Fall through to the exclusive handoff below.
    } else if (b.tokens != total) {  // FwdGetX
        startRecall(addr, b, Recall::Full);
        return;
    }

    // Exclusive handoff (Fwd-GetX or migratory Fwd-GetS): all intra
    // tokens are home, so the shim's copy is the chip's only one.
    if (!b.owner || !b.validData)
        panic("exclusive handoff without data at shim");
    b.extPending = false;
    Msg r;
    r.type = MsgType::DataEx;
    r.addr = addr;
    r.dst = m.requestor;
    r.requestor = m.requestor;
    r.hasData = true;
    r.value = b.value;
    r.dirty = b.dirty;
    r.acks = m.acks;
    b.chip = ChipState::I;
    b.validData = false;
    b.dirty = false;
    b.chipStored = false;
    _residency.leave(b);
    // A pending owner upgrade just lost its data: the home will
    // answer the demoted GetX with a full DataEx instead.
    if (b.fetch != Fetch::None)
        b.fetchHasData = false;
    send(std::move(r), dg.params.l2Latency);
    forwardPersistentTokens(addr);
}

void
HierShim::startRecall(Addr addr, Blk &b, Recall kind)
{
    b.recall = kind;
    if (kind == Recall::Full)
        ++stats.recallsFull;
    else
        ++stats.recallsDown;
    broadcastRecall(addr, kind);
    scheduleRecallRetry(addr, b.recallGen);
}

void
HierShim::broadcastRecall(Addr addr, Recall kind)
{
    Msg inv;
    inv.type = MsgType::Inv;
    inv.addr = addr;
    inv.requestor = _id;
    inv.isRead = (kind == Recall::Down);
    for (const MachineID &t :
         localL1Targets(ctx.topo, _id.cmp, _id)) {
        inv.dst = t;
        send(inv, g.params.l2Latency);
    }
}

void
HierShim::scheduleRecallRetry(Addr addr, std::uint64_t gen)
{
    // Deterministic sweep: tokens that persistent-table forwarding
    // keeps routing to a local initiator (the paper's external-inv vs
    // in-flight-persistent race) are re-collected every period; each
    // round strictly grows the shim's sink, so the recall converges.
    const Tick period =
        4 * (g.params.l1Latency + g.params.l2Latency);
    ctx.eventq.schedule(period, [this, addr, gen]() {
        auto it = _blocks.find(addr);
        if (it == _blocks.end())
            return;
        const Blk &b = it->second;
        if (b.recall == Recall::None || b.recallGen != gen)
            return;
        ++stats.recallRebroadcasts;
        broadcastRecall(addr, b.recall);
        scheduleRecallRetry(addr, gen);
    });
}

void
HierShim::checkRecallDone(Addr addr, Blk &b)
{
    if (b.recall == Recall::Full) {
        if (b.tokens != g.params.totalTokens)
            return;
    } else {
        if (!b.owner || !b.validData)
            return;
    }
    b.recall = Recall::None;
    ++b.recallGen;
    if (!b.extPending)
        panic("recall completed without an external request");
    tryFinishExternal(addr, b);
}

// ---------------------------------------------------------------------
// Residency cap and chip-level writebacks
// ---------------------------------------------------------------------

bool
HierShim::evictable(const Blk &b) const
{
    // Cheap fields first; the persistent table is a linear scan.
    return b.tokens == g.params.totalTokens && b.fetch == Fetch::None &&
           b.recall == Recall::None && !b.wbPending && !b.extPending &&
           ptable.activeFor(b.addr) < 0;
}

void
HierShim::maybeEvict(Blk &just_fetched)
{
    if (_residencyCap == 0)
        return;
    _residency.evict(
        _residencyCap, &just_fetched,
        [this](const Blk &b) { return evictable(b); },
        [this](Blk &b) {
            if (b.chip == ChipState::S) {
                // All tokens home, so no local L1 can read a stale
                // copy after the home re-grants the block elsewhere.
                b.chip = ChipState::I;
                b.validData = false;
                b.dirty = false;
                ++stats.silentDrops;
            } else {
                startWb(b.addr, b);
            }
        });
}

void
HierShim::touchPersistent(unsigned prio)
{
    if (!_residency.watching() || !ptable.valid(prio))
        return;
    auto it = _blocks.find(ptable.entry(prio).addr);
    if (it != _blocks.end())
        _residency.touch(it->second);
}

void
HierShim::startWb(Addr addr, Blk &b)
{
    if (!b.owner || !b.validData)
        panic("writeback without the owner copy");
    b.wbPending = true;
    b.wbValue = b.value;
    b.wbDirty = b.dirty;
    b.wbCancelled = false;
    b.chip = ChipState::I;
    b.validData = false;
    b.dirty = false;
    b.chipStored = false;
    ++stats.writebacksOut;
    Msg m;
    m.type = MsgType::WbRequest;
    m.addr = addr;
    m.dst = ctx.topo.homeOf(addr);
    m.requestor = _id;
    send(std::move(m), dg.params.l2Latency);
}

void
HierShim::onWbGrant(const Msg &m)
{
    const Addr addr = blockAlign(m.addr);
    Blk &b = ensureBlock(addr);
    if (!b.wbPending)
        panic("home WbGrant without pending writeback");
    Msg r;
    r.addr = addr;
    r.dst = ctx.topo.homeOf(addr);
    r.requestor = _id;
    if (b.wbCancelled) {
        r.type = MsgType::WbCancel;
        ++stats.writebacksCancelled;
    } else {
        r.type = MsgType::WbData;
        r.hasData = b.wbDirty;
        r.value = b.wbValue;
        r.dirty = b.wbDirty;
    }
    b.wbPending = false;
    b.wbCancelled = false;
    send(std::move(r), dg.params.l2Latency);
    // A demand queued behind the writeback re-fires through the
    // persistent path (transients re-trigger via their own retries).
    forwardPersistentTokens(addr);
}

// ---------------------------------------------------------------------
// Intra-CMP persistent-request arbiter (TokenMem clone; the
// activate/deactivate broadcast spans only this CMP's L1s)
// ---------------------------------------------------------------------

void
HierShim::onArbRequest(const Msg &m)
{
    ensureBlock(m.addr);
    const auto orphan = std::make_pair(m.prio, m.reqId);
    if (_arbOrphans.erase(orphan) != 0)
        return;
    ArbReq req;
    req.addr = blockAlign(m.addr);
    req.isRead = m.isRead;
    req.prio = m.prio;
    req.seq = m.reqId;
    req.initiator = m.requestor;

    if (_arbBusy) {
        _arbQueue.push_back(req);
        stats.arbQueueMax =
            std::max<std::uint64_t>(stats.arbQueueMax,
                                    _arbQueue.size());
        return;
    }
    activateArb(req);
}

void
HierShim::activateArb(const ArbReq &req)
{
    _arbBusy = true;
    _arbActive = req;
    ++stats.arbActivations;

    // Local table first so the shim's own tokens flow (or a fetch
    // starts) immediately.
    touchPersistent(req.prio);
    ptable.insert(req.prio, req.addr, req.isRead, req.initiator,
                  req.seq);
    onPersistentTableChange(req.addr);

    Msg m;
    m.type = MsgType::PersistArbActivate;
    m.addr = req.addr;
    m.isRead = req.isRead;
    m.prio = req.prio;
    m.reqId = req.seq;
    m.requestor = req.initiator;
    for (const MachineID &t :
         localL1Targets(ctx.topo, _id.cmp, _id)) {
        m.dst = t;
        send(m, g.params.l2Latency);
    }
}

void
HierShim::onArbDone(const Msg &m)
{
    if (_arbBusy && _arbActive.prio == m.prio &&
        _arbActive.seq == m.reqId) {
        touchPersistent(_arbActive.prio);
        if (ptable.valid(_arbActive.prio))
            ptable.erase(_arbActive.prio);

        Msg d;
        d.type = MsgType::PersistArbDeactivate;
        d.addr = _arbActive.addr;
        d.prio = _arbActive.prio;
        d.reqId = _arbActive.seq;
        for (const MachineID &t :
             localL1Targets(ctx.topo, _id.cmp, _id)) {
            d.dst = t;
            send(d, g.params.l2Latency);
        }

        _arbBusy = false;
        if (!_arbQueue.empty()) {
            const ArbReq next = _arbQueue.front();
            _arbQueue.pop_front();
            activateArb(next);
        }
        return;
    }

    for (auto it = _arbQueue.begin(); it != _arbQueue.end(); ++it) {
        if (it->prio == m.prio && it->seq == m.reqId) {
            _arbQueue.erase(it);
            return;
        }
    }
    _arbOrphans.emplace(m.prio, m.reqId);
}

} // namespace tokencmp
