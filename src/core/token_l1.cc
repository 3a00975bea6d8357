#include "core/token_l1.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

TokenL1::TokenL1(SimContext &ctx, MachineID id, TokenGlobals &g,
                 std::uint64_t size_bytes, unsigned assoc)
    : TokenController(ctx, id, g),
      _array(size_bytes, assoc),
      _ewmaMemLat(static_cast<double>(g.params.timeoutInitial))
{
    if (id.type != MachineType::L1D && id.type != MachineType::L1I)
        panic("TokenL1 requires an L1 machine id");
}

const TokenSt *
TokenL1::peek(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? &line->st : nullptr;
}

// ---------------------------------------------------------------------
// CPU interface
// ---------------------------------------------------------------------

void
TokenL1::cpuRequest(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    if (_id.type == MachineType::L1I && req.op != MemOp::Ifetch)
        panic("non-fetch op at L1I");
    if (_txns.count(addr))
        panic("duplicate outstanding miss at %s", _id.toString().c_str());

    Line *line = _array.probe(addr);
    const bool is_write = isWriteOp(req.op);
    const int total = g.params.totalTokens;

    const bool hit = line != nullptr &&
                     (is_write ? line->st.writable(total)
                               : line->st.readable());
    if (hit) {
        ++stats.hits;
        _array.touch(line);
        std::uint64_t old = line->st.value;
        if (is_write) {
            line->st.value = req.op == MemOp::Atomic
                                 ? req.rmw(old)
                                 : req.operand;
            line->st.dirty = true;
            line->st.locallyModified = true;
            // Only atomics (lock acquires) refresh the response-delay
            // window on a hit: a plain store hit is typically the
            // release, and extending the hold would delay the handoff
            // to the next contender.
            if (req.op == MemOp::Atomic) {
                line->st.holdUntil =
                    ctx.now() + g.params.responseDelay;
            }
        }
        const Tick lat = g.params.l1Latency;
        auto cb = req.callback;
        ctx.eventq.schedule(lat, [cb, old, lat]() {
            cb(MemResult{old, lat});
        });
        return;
    }

    ++stats.misses;
    startMiss(req);
}

void
TokenL1::startMiss(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    allocLine(addr);

    Txn txn;
    txn.req = req;
    txn.isWrite = isWriteOp(req.op);
    txn.issued = ctx.now();
    auto [it, ok] = _txns.emplace(addr, std::move(txn));
    (void)ok;

    if (_policy->maxTransients(it->second.isWrite) == 0) {
        issuePersistent(addr, it->second);
        return;
    }
    if (_policy->shouldGoPersistent(addr, 0)) {
        ++stats.predictedPersistents;
        issuePersistent(addr, it->second);
        return;
    }
    it->second.attempts = 1;
    issueTransient(addr, it->second);
    armTimeout(addr, it->second);
}

// ---------------------------------------------------------------------
// Line management
// ---------------------------------------------------------------------

TokenL1::Line *
TokenL1::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;
    Line *victim = _array.victimWhere(addr, [this](const Line &l) {
        return _txns.count(l.tag) == 0;
    });
    if (victim == nullptr)
        panic("all ways pinned at %s", _id.toString().c_str());
    if (victim->valid)
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
TokenL1::evictLine(Line *line)
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
            // Tokens are claimed by an active persistent request:
            // hand them straight to the initiator.
            m.type = MsgType::TokResponse;
            m.dst = ptable.entry(active).initiator;
            m.requestor = m.dst;
        } else {
            m.type = MsgType::TokWriteback;
            m.dst = ctx.topo.l2BankFor(_id.cmp, addr);
        }
        ++stats.writebacks;
        sendTok(std::move(m), g.params.l1Latency);
    }
    _array.invalidate(line);
}

void
TokenL1::mergeResponse(Line *line, const Msg &m)
{
    TokenSt &st = line->st;
    st.tokens += m.tokens;
    if (st.tokens > g.params.totalTokens)
        panic("line exceeds total tokens at %s", _id.toString().c_str());
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

// ---------------------------------------------------------------------
// Transient requests and timeouts
// ---------------------------------------------------------------------

void
TokenL1::issueTransient(Addr addr, Txn &txn)
{
    ++stats.transientsIssued;
    Msg m;
    m.type = txn.isWrite ? MsgType::TokWriteReq : MsgType::TokReadReq;
    m.addr = addr;
    m.requestor = _id;
    m.attempt = std::uint8_t(std::min(txn.attempts, 255u));

    _destScratch.clear();
    _policy->destinationSet(addr, DestKind::L1Transient, txn.isWrite,
                            txn.attempts, _destScratch);
    for (const MachineID &t : _destScratch) {
        m.dst = t;
        send(m, g.params.l1Latency);
    }
}

Tick
TokenL1::timeoutThreshold(unsigned attempts) const
{
    const auto &p = g.params;
    double thr = p.timeoutMult * _ewmaMemLat;
    thr = std::clamp(thr, static_cast<double>(p.timeoutMin),
                     static_cast<double>(p.timeoutMax));
    // Linear backoff across retries.
    thr *= static_cast<double>(attempts);
    return static_cast<Tick>(thr);
}

void
TokenL1::armTimeout(Addr addr, Txn &txn)
{
    ++txn.gen;
    const std::uint64_t gen = txn.gen;
    // Pseudo-random perturbation avoids lock-step retries (Section 4).
    const Tick base = timeoutThreshold(txn.attempts);
    const Tick jitter = base / 8;
    const Tick when =
        base - jitter + Tick(ctx.rng.uniform(2 * jitter + 1));
    ctx.eventq.schedule(when, [this, addr, gen]() {
        onTimeout(addr, gen);
    });
}

void
TokenL1::onTimeout(Addr addr, std::uint64_t gen)
{
    auto it = _txns.find(addr);
    if (it == _txns.end() || it->second.gen != gen ||
        it->second.persistent) {
        return;
    }
    Txn &txn = it->second;
    _policy->onRetry(addr, ctx.rng);
    if (txn.attempts < _policy->maxTransients(txn.isWrite)) {
        ++txn.attempts;
        ++stats.retries;
        issueTransient(addr, txn);
        armTimeout(addr, txn);
    } else {
        issuePersistent(addr, txn);
    }
}

void
TokenL1::observeMemLatency(Tick sample)
{
    _ewmaMemLat = 0.75 * _ewmaMemLat + 0.25 * double(sample);
}

// ---------------------------------------------------------------------
// Persistent requests
// ---------------------------------------------------------------------

void
TokenL1::issuePersistent(Addr addr, Txn &txn)
{
    txn.persistent = true;
    ++stats.persistents;
    g.persistentIssued.fetch_add(1, std::memory_order_relaxed);
    if (!txn.isWrite)
        ++stats.persistentReads;

    if (_policy->activation() == PersistentActivation::Arbiter) {
        txn.prSeq = g.nextPrSeq(myProc());
        Msg m;
        m.type = MsgType::PersistArbRequest;
        m.addr = addr;
        m.isRead = !txn.isWrite;
        m.prio = std::uint8_t(myProc());
        m.reqId = txn.prSeq;
        m.requestor = _id;
        m.dst = arbiterOf(addr);
        send(std::move(m), g.params.l1Latency);
        txn.activated = true;  // the arbiter handles activation
        return;
    }

    // Distributed activation: the marking mechanism gates re-issue
    // until the current wave for this block has drained.
    if (ptable.anyMarkedFor(addr)) {
        txn.gatePending = true;
        return;
    }
    activatePersistent(addr, txn);
}

void
TokenL1::activatePersistent(Addr addr, Txn &txn)
{
    txn.prSeq = g.nextPrSeq(myProc());
    txn.activated = true;
    ptable.insert(myProc(), addr, !txn.isWrite, _id, txn.prSeq);
    onPersistentTableChange(addr);

    Msg m;
    m.type = MsgType::PersistActivate;
    m.addr = addr;
    m.isRead = !txn.isWrite;
    m.prio = std::uint8_t(myProc());
    m.reqId = txn.prSeq;
    m.requestor = _id;
    for (const MachineID &t : persistTargets(ctx.topo, addr, _id)) {
        m.dst = t;
        send(m, g.params.l1Latency);
    }
}

void
TokenL1::deactivatePersistent(Addr addr, Txn &txn)
{
    if (!txn.activated)
        return;  // gated and never activated: nothing to clean up

    if (_policy->activation() == PersistentActivation::Arbiter) {
        Msg m;
        m.type = MsgType::PersistArbDone;
        m.addr = addr;
        m.prio = std::uint8_t(myProc());
        m.reqId = txn.prSeq;
        m.requestor = _id;
        m.dst = arbiterOf(addr);
        send(std::move(m), g.params.l1Latency);
        return;
    }

    ptable.erase(myProc());
    ptable.markAllFor(addr);

    Msg m;
    m.type = MsgType::PersistDeactivate;
    m.addr = addr;
    m.prio = std::uint8_t(myProc());
    m.reqId = txn.prSeq;
    m.requestor = _id;
    for (const MachineID &t : persistTargets(ctx.topo, addr, _id)) {
        m.dst = t;
        send(m, g.params.l1Latency);
    }

    // Minimum-latency handoff: our own table names the next-priority
    // requester; the forwarding hook sends it the block (after the
    // response-delay window protecting our critical section).
    onPersistentTableChange(addr);
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

void
TokenL1::tryComplete(Addr addr)
{
    auto it = _txns.find(addr);
    if (it == _txns.end())
        return;
    Txn &txn = it->second;
    Line *line = _array.probe(addr);
    if (line == nullptr)
        panic("transaction without a pinned line");
    TokenSt &st = line->st;

    std::uint64_t old;
    if (txn.isWrite) {
        if (!st.writable(g.params.totalTokens))
            return;
        old = st.value;
        st.value = txn.req.op == MemOp::Atomic ? txn.req.rmw(old)
                                               : txn.req.operand;
        st.dirty = true;
        st.locallyModified = true;
        st.holdUntil = ctx.now() + g.params.responseDelay;
    } else {
        if (!st.readable())
            return;
        old = st.value;
    }

    if (!txn.persistent)
        _policy->onSuccess(addr);

    // Seed the shared L2 with surplus read tokens (the C-token
    // transfer exists "to reduce the latency of a future intra-CMP
    // request" — which asks the L2 bank, so that is where the spare
    // tokens belong; it also stops the L2 escalating sibling misses
    // off-chip when the tokens are already on chip). Exclusive grants
    // (owner held) are kept intact for the read-then-write pattern.
    if (!txn.isWrite && !st.owner && st.tokens > 1 && st.validData) {
        Msg shed;
        shed.type = MsgType::TokWriteback;
        shed.addr = addr;
        shed.dst = ctx.topo.l2BankFor(_id.cmp, addr);
        shed.tokens = st.tokens - 1;
        shed.hasData = true;
        shed.value = st.value;
        st.tokens = 1;
        sendTok(std::move(shed), g.params.l1Latency);
    }

    MemResult res;
    res.value = old;
    res.latency = ctx.now() - txn.req.issued;
    auto cb = txn.req.callback;

    Txn done = std::move(it->second);
    _txns.erase(it);
    deactivatePersistent(addr, done);
    cb(res);
}

// ---------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------

void
TokenL1::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokResponse:
        onResponse(msg);
        return;
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        onTransientReq(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistDeactivate:
      case MsgType::PersistArbActivate:
      case MsgType::PersistArbDeactivate:
        handlePersistTableMsg(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
TokenL1::onResponse(const Msg &m)
{
    receiveTok(m);
    if (m.tokens > 0 || m.owner)
        _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    const Addr addr = m.addr;
    Line *line = _array.probe(addr);

    if (line == nullptr) {
        // Unsolicited/straggler tokens for a block we no longer hold:
        // bounce them to the L2 bank (the substrate never drops
        // tokens).
        if (m.tokens > 0 || m.owner) {
            ++stats.bounces;
            Msg wb;
            wb.type = MsgType::TokWriteback;
            wb.addr = addr;
            wb.dst = ctx.topo.l2BankFor(_id.cmp, addr);
            wb.tokens = m.tokens;
            wb.owner = m.owner;
            wb.hasData = m.owner;
            wb.value = m.value;
            wb.dirty = m.owner && m.dirty;
            sendTok(std::move(wb), g.params.l1Latency);
        }
        return;
    }

    mergeResponse(line, m);
    if (m.src.type == MachineType::Mem && _txns.count(addr))
        observeMemLatency(ctx.now() - _txns.at(addr).issued);

    tryComplete(addr);
    forwardPersistentTokens(addr);
}

void
TokenL1::onTransientReq(const Msg &m)
{
    Line *line = _array.probe(m.addr);
    if (line == nullptr || line->st.tokens == 0)
        return;
    // Competing for this block ourselves, or an active persistent
    // request owns the tokens, or we're inside the response-delay
    // window: stay silent; the requester retries or escalates.
    if (_txns.count(m.addr))
        return;
    if (ptable.activeFor(m.addr) >= 0)
        return;
    if (line->st.holdUntil > ctx.now())
        return;

    TokenSt &st = line->st;
    const bool is_write = m.type == MsgType::TokWriteReq;
    const bool local = m.requestor.cmp == _id.cmp;
    const int total = g.params.totalTokens;

    Msg r;
    r.type = MsgType::TokResponse;
    r.addr = m.addr;
    r.dst = m.requestor;
    r.requestor = m.requestor;

    if (is_write) {
        // Give everything; only the owner attaches data.
        r.tokens = st.tokens;
        r.owner = st.owner;
        r.hasData = st.owner;
        r.value = st.value;
        r.dirty = st.owner && st.dirty;
        _array.invalidate(line);
        sendTok(std::move(r), g.params.l1Latency);
        return;
    }

    // Read request.
    const bool migratory = g.params.migratory && st.owner &&
                           st.locallyModified && st.validData &&
                           st.tokens == total;
    if (migratory) {
        ++stats.migratorySends;
        r.tokens = st.tokens;
        r.owner = true;
        r.hasData = true;
        r.value = st.value;
        r.dirty = st.dirty;
        _array.invalidate(line);
        sendTok(std::move(r), g.params.l1Latency);
        return;
    }

    if (local) {
        // On-chip read: share one token if we can spare one.
        if (st.tokens >= 2 && st.validData) {
            r.tokens = 1;
            r.hasData = true;
            r.value = st.value;
            st.tokens -= 1;
            sendTok(std::move(r), g.params.l1Latency);
        }
        return;
    }

    // External read: only the owner CMP responds, with C tokens if
    // possible to seed the requester's CMP (Section 4).
    if (!st.owner || !st.validData)
        return;
    const int k = std::min(g.params.cTokens, st.tokens);
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
        st.locallyModified = false;
        _array.invalidate(line);
    }
    sendTok(std::move(r), g.params.l1Latency);
}

// ---------------------------------------------------------------------
// Persistent forwarding
// ---------------------------------------------------------------------

void
TokenL1::onPersistentTableChange(Addr addr)
{
    forwardPersistentTokens(addr);
    resumeGatedTxn(addr);
}

void
TokenL1::resumeGatedTxn(Addr addr)
{
    auto it = _txns.find(addr);
    if (it == _txns.end() || !it->second.gatePending)
        return;
    if (ptable.anyMarkedFor(addr))
        return;
    it->second.gatePending = false;
    activatePersistent(addr, it->second);
}

void
TokenL1::forwardPersistentTokens(Addr addr)
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

    if (st.holdUntil > ctx.now()) {
        // Bounded response delay: recheck when the window closes.
        if (!st.recheckScheduled) {
            st.recheckScheduled = true;
            ctx.eventq.scheduleAbs(st.holdUntil, [this, addr]() {
                Line *l = _array.probe(addr);
                if (l != nullptr)
                    l->st.recheckScheduled = false;
                onPersistentTableChange(addr);
            });
        }
        return;
    }

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
        st.locallyModified = false;
        if (_txns.count(addr) == 0)
            _array.invalidate(line);
    }
    sendTok(std::move(r), g.params.l1Latency);
}

} // namespace tokencmp
