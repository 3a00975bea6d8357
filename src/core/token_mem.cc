#include "core/token_mem.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

TokenMem::TokenMem(SimContext &ctx, MachineID id, TokenGlobals &g)
    : TokenController(ctx, id, g)
{
    if (id.type != MachineType::Mem)
        panic("TokenMem requires a Mem machine id");
}

TokenMem::MemBlock &
TokenMem::ensureBlock(Addr addr)
{
    const Addr blk = blockAlign(addr);
    auto it = _blocks.find(blk);
    if (it == _blocks.end()) {
        MemBlock b;
        b.tokens = g.params.totalTokens;
        b.owner = true;
        it = _blocks.emplace(blk, b).first;
        g.auditor.initBlock(blk);
    }
    return it->second;
}

int
TokenMem::tokensHeld(Addr addr) const
{
    auto it = _blocks.find(blockAlign(addr));
    return it == _blocks.end() ? -1 : it->second.tokens;
}

bool
TokenMem::ownerHeld(Addr addr) const
{
    auto it = _blocks.find(blockAlign(addr));
    return it != _blocks.end() && it->second.owner;
}

void
TokenMem::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        onTransientReq(msg);
        return;
      case MsgType::TokWriteback:
      case MsgType::TokResponse:
        onWriteback(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistDeactivate:
        ensureBlock(msg.addr);
        handlePersistTableMsg(msg);
        return;
      case MsgType::PersistArbRequest:
        onArbRequest(msg);
        return;
      case MsgType::PersistArbDone:
        onArbDone(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
TokenMem::onTransientReq(const Msg &m)
{
    MemBlock &b = ensureBlock(m.addr);
    if (ptable.activeFor(m.addr) >= 0)
        return;
    if (b.tokens == 0)
        return;

    const bool is_write = m.type == MsgType::TokWriteReq;
    Msg r;
    r.type = MsgType::TokResponse;
    r.addr = m.addr;
    r.dst = m.requestor;
    r.requestor = m.requestor;

    if (is_write) {
        r.tokens = b.tokens;
        r.owner = b.owner;
        r.hasData = b.owner;
        r.value = g.store.read(m.addr);
        b.tokens = 0;
        b.owner = false;
    } else {
        // Reads are served only when memory has valid data (== owner).
        if (!b.owner)
            return;
        // An entirely uncached block is granted in full — the token
        // analogue of a clean-exclusive (E) grant, letting the common
        // read-then-write pattern complete with a single miss.
        // Otherwise C tokens seed the requesting CMP (Section 4).
        const int k = b.tokens == g.params.totalTokens
                          ? b.tokens
                          : std::min(g.params.cTokens, b.tokens);
        r.tokens = k;
        r.owner = (k == b.tokens);
        r.hasData = true;
        r.value = g.store.read(m.addr);
        b.tokens -= k;
        if (r.owner)
            b.owner = false;
    }

    // Token counts live alongside the data in DRAM (ECC-style), so
    // every memory response pays one DRAM access.
    const Tick lat = g.params.memCtrlLatency + g.params.dramLatency;
    ++stats.dramAccesses;
    if (r.hasData)
        ++stats.dataResponses;
    else
        ++stats.tokenOnlyResponses;
    sendTok(std::move(r), lat);
}

void
TokenMem::onWriteback(const Msg &m)
{
    MemBlock &b = ensureBlock(m.addr);
    receiveTok(m);
    if (m.tokens == 0 && !m.owner)
        return;
    ++stats.writebacks;
    _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    b.tokens += m.tokens;
    if (b.tokens > g.params.totalTokens)
        panic("memory exceeds total tokens");
    if (m.owner) {
        b.owner = true;
        if (m.hasData) {
            g.store.write(m.addr, m.value);
            ++stats.dramAccesses;
        }
    }
    forwardPersistentTokens(m.addr);
}

void
TokenMem::onPersistentTableChange(Addr addr)
{
    forwardPersistentTokens(addr);
}

void
TokenMem::forwardPersistentTokens(Addr addr)
{
    const int active = ptable.activeFor(addr);
    if (active < 0)
        return;
    const auto &entry = ptable.entry(active);

    auto it = _blocks.find(blockAlign(addr));
    if (it == _blocks.end() || it->second.tokens == 0)
        return;
    MemBlock &b = it->second;

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
    r.addr = addr;
    r.dst = entry.initiator;
    r.requestor = entry.initiator;
    r.tokens = plan.sendTokens;
    r.owner = plan.sendOwner;
    r.hasData = plan.sendData;
    r.value = g.store.read(addr);

    b.tokens -= plan.sendTokens;
    if (plan.sendOwner)
        b.owner = false;

    const Tick lat = g.params.memCtrlLatency + g.params.dramLatency;
    ++stats.dramAccesses;
    sendTok(std::move(r), lat);
}

// ---------------------------------------------------------------------
// Arbiter-based activation (Section 3.2)
// ---------------------------------------------------------------------

void
TokenMem::onArbRequest(const Msg &m)
{
    ensureBlock(m.addr);
    // The requester's Done may have overtaken this request.
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
TokenMem::activateArb(const ArbReq &req)
{
    _arbBusy = true;
    _arbActive = req;
    ++stats.arbActivations;

    // Apply to the local table first so memory's own tokens flow.
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
         persistTargets(ctx.topo, req.addr, _id)) {
        m.dst = t;
        send(m, g.params.memCtrlLatency);
    }
}

void
TokenMem::onArbDone(const Msg &m)
{
    if (_arbBusy && _arbActive.prio == m.prio &&
        _arbActive.seq == m.reqId) {
        // Deactivate everywhere, then start the next queued request —
        // the indirect handoff that hurts under contention (Fig. 2).
        if (ptable.valid(_arbActive.prio))
            ptable.erase(_arbActive.prio);

        Msg d;
        d.type = MsgType::PersistArbDeactivate;
        d.addr = _arbActive.addr;
        d.prio = _arbActive.prio;
        d.reqId = _arbActive.seq;
        for (const MachineID &t :
             persistTargets(ctx.topo, _arbActive.addr, _id)) {
            d.dst = t;
            send(d, g.params.memCtrlLatency);
        }

        _arbBusy = false;
        if (!_arbQueue.empty()) {
            const ArbReq next = _arbQueue.front();
            _arbQueue.pop_front();
            activateArb(next);
        }
        return;
    }

    // Completed before activation: drop it from the queue.
    for (auto it = _arbQueue.begin(); it != _arbQueue.end(); ++it) {
        if (it->prio == m.prio && it->seq == m.reqId) {
            _arbQueue.erase(it);
            return;
        }
    }
    // Done overtook its own request: remember the orphan so the
    // stale request is discarded instead of activated forever.
    _arbOrphans.emplace(m.prio, m.reqId);
}

} // namespace tokencmp
