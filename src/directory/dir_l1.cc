#include "directory/dir_l1.hh"

#include "sim/logging.hh"

namespace tokencmp {

DirL1::DirL1(SimContext &ctx, MachineID id, DirGlobals &g,
             std::uint64_t size_bytes, unsigned assoc)
    : Controller(ctx, id), _array(size_bytes, assoc), g(g)
{
    if (id.type != MachineType::L1D && id.type != MachineType::L1I)
        panic("DirL1 requires an L1 machine id");
}

L1State
DirL1::peekState(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? line->st.state : L1State::I;
}

// ---------------------------------------------------------------------
// CPU interface
// ---------------------------------------------------------------------

void
DirL1::cpuRequest(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    if (_id.type == MachineType::L1I && req.op != MemOp::Ifetch)
        panic("non-fetch op at L1I");
    if (_txns.count(addr))
        panic("duplicate outstanding miss at %s", _id.toString().c_str());

    // A block mid-writeback: replay the request when the writeback
    // completes (bounded three-phase exchange).
    if (_wb.count(addr)) {
        _wbWaiters[addr].push_back(req);
        return;
    }

    Line *line = _array.probe(addr);
    const bool is_write = isWriteOp(req.op);

    if (line != nullptr && line->st.state != L1State::I) {
        DirL1St &st = line->st;
        const bool hit =
            is_write ? (st.state == L1State::M || st.state == L1State::E)
                     : true;
        if (hit) {
            ++stats.hits;
            _array.touch(line);
            std::uint64_t old = st.value;
            if (is_write) {
                applyWrite(line, req, old);
            }
            const Tick lat = g.params.l1Latency;
            auto cb = req.callback;
            ctx.eventq.schedule(lat, [cb, old, lat]() {
                cb(MemResult{old, lat});
            });
            return;
        }
    }

    ++stats.misses;
    startMiss(req);
}

void
DirL1::applyWrite(Line *line, const MemRequest &req, std::uint64_t &old)
{
    DirL1St &st = line->st;
    const bool was_exclusive =
        st.state == L1State::M || st.state == L1State::E;
    old = st.value;
    st.value =
        req.op == MemOp::Atomic ? req.rmw(old) : req.operand;
    st.state = L1State::M;  // silent E->M upgrade on stores
    st.dirty = true;
    st.locallyStored = true;
    // The response-delay window protects a critical section from its
    // acquisition; a plain store *hit* (typically the release) must
    // not extend it and delay the handoff.
    if (req.op == MemOp::Atomic || !was_exclusive)
        st.holdUntil = ctx.now() + g.params.responseDelay;
}

void
DirL1::startMiss(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    Txn txn;
    txn.req = req;
    txn.isWrite = isWriteOp(req.op);
    _txns.emplace(addr, std::move(txn));

    Msg m;
    m.type = txn.isWrite ? MsgType::GetX : MsgType::GetS;
    m.addr = addr;
    m.dst = myL2(addr);
    m.requestor = _id;
    if (txn.isWrite)
        ++stats.getX;
    else
        ++stats.getS;
    send(std::move(m), g.params.l1Latency);
}

// ---------------------------------------------------------------------
// Line management
// ---------------------------------------------------------------------

DirL1::Line *
DirL1::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;
    Line *victim = _array.victimWhere(addr, [this](const Line &l) {
        return _txns.count(l.tag) == 0 && _wb.count(l.tag) == 0;
    });
    if (victim == nullptr)
        panic("all L1 ways pinned at %s", _id.toString().c_str());
    if (victim->valid)
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
DirL1::evictLine(Line *line)
{
    const Addr addr = line->tag;
    const DirL1St &st = line->st;
    if (st.state == L1State::M || st.state == L1State::E) {
        // Three-phase writeback: ask permission, keep answering
        // forwards from the buffered copy until granted.
        WbEntry wb;
        wb.value = st.value;
        wb.dirty = st.dirty;
        _wb.emplace(addr, wb);
        ++stats.writebacks;
        Msg m;
        m.type = MsgType::WbRequest;
        m.addr = addr;
        m.dst = myL2(addr);
        m.requestor = _id;
        send(std::move(m), g.params.l1Latency);
    }
    // S lines are dropped silently; the intra directory tolerates
    // stale sharer bits (spurious Invs are acked from state I).
    _array.invalidate(line);
}

void
DirL1::complete(Addr addr, std::uint64_t value)
{
    auto it = _txns.find(addr);
    if (it == _txns.end())
        panic("completing unknown transaction");
    const MemRequest req = it->second.req;
    _txns.erase(it);
    MemResult res;
    res.value = value;
    res.latency = ctx.now() - req.issued;
    req.callback(res);
}

// ---------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------

void
DirL1::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::Data:
        onData(msg, false);
        return;
      case MsgType::DataEx:
        onData(msg, true);
        return;
      case MsgType::Inv:
        onInv(msg);
        return;
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
        onFwd(msg, false);
        return;
      case MsgType::WbGrant:
        onWbGrant(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
DirL1::onData(const Msg &m, bool exclusive)
{
    const Addr addr = m.addr;
    auto it = _txns.find(addr);
    if (it == _txns.end())
        panic("data response without transaction at %s",
              _id.toString().c_str());
    Txn &txn = it->second;

    Line *line = allocLine(addr);
    DirL1St &st = line->st;
    st.value = m.value;

    std::uint64_t old = st.value;
    if (txn.isWrite) {
        if (!exclusive)
            panic("write transaction got a shared response");
        applyWrite(line, txn.req, old);
    } else if (exclusive) {
        // Migratory or clean-exclusive grant on a read.
        st.state = m.dirty ? L1State::M : L1State::E;
        st.dirty = m.dirty;
    } else {
        st.state = L1State::S;
        st.dirty = false;
    }
    complete(addr, old);
}

void
DirL1::onInv(const Msg &m)
{
    ++stats.invsServed;
    Line *line = _array.probe(m.addr);
    if (line != nullptr) {
        if (line->st.state == L1State::M ||
            line->st.state == L1State::E) {
            panic("Inv delivered to an exclusive holder at %s",
                  _id.toString().c_str());
        }
        _array.invalidate(line);
    }
    Msg ack;
    ack.type = MsgType::InvAck;
    ack.addr = m.addr;
    ack.dst = m.src;
    ack.requestor = _id;
    ack.reqId = m.reqId;
    ack.acks = 1;
    send(std::move(ack), g.params.l1Latency);
}

void
DirL1::onFwd(const Msg &m, bool force)
{
    const Addr addr = m.addr;
    const bool wants_exclusive = m.type == MsgType::FwdGetX;

    // Forwards to a block mid-writeback are served from the buffer.
    auto wit = _wb.find(addr);
    if (wit != _wb.end()) {
        WbEntry &wb = wit->second;
        ++stats.fwdsServed;
        Msg r;
        r.type = wants_exclusive ? MsgType::DataEx : MsgType::Data;
        r.addr = addr;
        r.dst = m.src;
        r.requestor = m.requestor;
        r.reqId = m.reqId;
        r.hasData = true;
        r.value = wb.value;
        r.dirty = wb.dirty;
        if (wants_exclusive)
            wb.cancelled = true;  // ownership moved; cancel on grant
        send(std::move(r), g.params.l1Latency);
        return;
    }

    Line *line = _array.probe(addr);
    if (line == nullptr || line->st.state == L1State::I ||
        line->st.state == L1State::S) {
        panic("%s: forward but not exclusive holder",
              _id.toString().c_str());
    }
    DirL1St &st = line->st;

    // Response-delay window: finish the critical section first
    // (bounded, so this cannot deadlock).
    if (!force && st.holdUntil > ctx.now()) {
        const Msg deferred = m;
        ctx.eventq.scheduleAbs(st.holdUntil, [this, deferred]() {
            onFwd(deferred, true);
        });
        return;
    }

    ++stats.fwdsServed;
    Msg r;
    r.addr = addr;
    r.dst = m.src;  // data routes through the L2 (intra directory)
    r.requestor = m.requestor;
    r.reqId = m.reqId;
    r.hasData = true;
    r.value = st.value;

    if (wants_exclusive) {
        r.type = MsgType::DataEx;
        r.dirty = st.dirty;
        _array.invalidate(line);
    } else if (g.params.migratory && st.state == L1State::M &&
               st.locallyStored) {
        // Migratory sharing: hand over read/write permission.
        ++stats.migratorySends;
        r.type = MsgType::DataEx;
        r.dirty = st.dirty;
        _array.invalidate(line);
    } else {
        // Downgrade; the L2 copy becomes the on-chip authority.
        r.type = MsgType::Data;
        r.dirty = st.dirty;
        st.state = L1State::S;
        st.dirty = false;
        st.locallyStored = false;
    }
    send(std::move(r), g.params.l1Latency);
}

void
DirL1::onWbGrant(const Msg &m)
{
    const Addr addr = m.addr;
    auto it = _wb.find(addr);
    if (it == _wb.end())
        panic("WbGrant without a pending writeback");
    const WbEntry wb = it->second;
    _wb.erase(it);

    Msg r;
    r.addr = addr;
    r.dst = m.src;
    r.requestor = _id;
    if (wb.cancelled) {
        ++stats.wbCancels;
        r.type = MsgType::WbCancel;
    } else {
        r.type = MsgType::WbData;
        r.hasData = wb.dirty;
        r.value = wb.value;
        r.dirty = wb.dirty;
    }
    send(std::move(r), g.params.l1Latency);

    // Replay any CPU requests that arrived during the writeback.
    auto qit = _wbWaiters.find(addr);
    if (qit != _wbWaiters.end()) {
        const std::vector<MemRequest> queued = std::move(qit->second);
        _wbWaiters.erase(qit);
        for (const MemRequest &req : queued)
            cpuRequest(req);
    }
}

} // namespace tokencmp
