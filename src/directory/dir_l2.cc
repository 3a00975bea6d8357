#include "directory/dir_l2.hh"

#include <bit>
#include <cstdio>

#include "sim/logging.hh"

namespace tokencmp {

DirL2::DirL2(SimContext &ctx, MachineID id, DirGlobals &g,
             std::uint64_t size_bytes, unsigned assoc)
    : Controller(ctx, id), _array(size_bytes, assoc), g(g)
{
    if (id.type != MachineType::L2Bank)
        panic("DirL2 requires an L2 machine id");
}

ChipState
DirL2::peekChip(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? line->st.chip : ChipState::I;
}

void
DirL2::debugDump() const
{
    auto hdr = [this](Addr a, const char *kind) {
        std::fprintf(stderr, "  %s block %llx: %s",
                     _id.toString().c_str(),
                     static_cast<unsigned long long>(a), kind);
    };
    for (const auto &[a, t] : _home) {
        hdr(a, "HOME");
        std::fprintf(stderr,
                     " isWrite=%d hasData=%d extAcks=%d/%d "
                     "localAcks=%d/%d l1=%s\n",
                     t.isWrite, t.hasData, t.extAcksGot,
                     t.extAcksNeeded, t.localAcksGot,
                     t.localAcksNeeded, t.l1Req.toString().c_str());
    }
    for (const auto &[a, t] : _local) {
        hdr(a, "LOCAL");
        std::fprintf(stderr, " isWrite=%d acks=%d/%d waitData=%d\n",
                     t.isWrite, t.acksGot, t.acksNeeded,
                     t.waitingData);
    }
    for (const auto &[a, t] : _ext) {
        hdr(a, "EXT");
        std::fprintf(stderr, " isWrite=%d isInv=%d acks=%d/%d "
                     "waitData=%d\n",
                     t.isWrite, t.isInv, t.acksGot, t.acksNeeded,
                     t.waitingData);
    }
    for (const auto &[a, t] : _wbLocal) {
        hdr(a, "WBLOCAL");
        std::fprintf(stderr, " l1=%s\n", t.l1.toString().c_str());
    }
    for (const auto &[a, t] : _wbHome) {
        hdr(a, "WBHOME");
        std::fprintf(stderr, " dirty=%d cancelled=%d\n", t.dirty,
                     t.cancelled);
    }
    for (const auto &[a, q] : _deferred) {
        if (q.empty())
            continue;
        hdr(a, "DEFER");
        for (const Msg &m : q)
            std::fprintf(stderr, " [%s from %s]", msgTypeName(m.type),
                         m.requestor.toString().c_str());
        std::fprintf(stderr, "\n");
    }
}

unsigned
DirL2::l1Slot(const MachineID &id) const
{
    return id.type == MachineType::L1D
               ? id.index
               : ctx.topo.procsPerCmp + id.index;
}

MachineID
DirL2::l1OfSlot(unsigned slot) const
{
    const unsigned p = ctx.topo.procsPerCmp;
    return slot < p ? ctx.topo.l1d(_id.cmp, slot)
                    : ctx.topo.l1i(_id.cmp, slot - p);
}

// ---------------------------------------------------------------------
// Line management
// ---------------------------------------------------------------------

DirL2::Line *
DirL2::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;

    Line *victim = _array.victimWhere(addr, [this](const Line &l) {
        return !busyAny(l.tag) && !_ext.count(l.tag) &&
               l.st.sharers == 0 && l.st.ownerSlot < 0;
    });
    if (victim == nullptr) {
        // Fall back to a sharers-only line: drop it with
        // fire-and-forget local invalidations; the home tolerates the
        // stale presence bit (a later Inv is acked from state I).
        victim = _array.victimWhere(addr, [this](const Line &l) {
            return !busyAny(l.tag) && !_ext.count(l.tag) &&
                   l.st.ownerSlot < 0 &&
                   (l.st.chip == ChipState::S ||
                    l.st.chip == ChipState::I);
        });
        if (victim == nullptr) {
            // Every way is pinned by an L1 owner: recall one
            // (inclusion-victim recall) through a side buffer.
            victim = _array.victimWhere(addr, [this](const Line &l) {
                return !busyAny(l.tag) && !_ext.count(l.tag) &&
                       l.st.ownerSlot >= 0;
            });
            if (victim == nullptr)
                panic("no evictable L2 way at %s",
                      _id.toString().c_str());
            startRecall(victim);
            _array.install(victim, addr);
            return victim;
        }
        if (victim->valid && victim->st.sharers != 0) {
            Msg inv;
            inv.type = MsgType::Inv;
            inv.addr = victim->tag;
            inv.requestor = _id;
            inv.reqId = 0;  // acks are ignored
            for (unsigned s = 0; s < 2 * ctx.topo.procsPerCmp; ++s) {
                if (victim->st.sharers & (1u << s)) {
                    inv.dst = l1OfSlot(s);
                    send(inv, g.params.l2Latency);
                }
            }
            _array.invalidate(victim);
        }
    }
    if (victim->valid)
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
DirL2::startRecall(Line *victim)
{
    const Addr addr = victim->tag;
    const DirL2St st = victim->st;
    _array.invalidate(victim);

    RecallSvc svc;
    svc.svcId = ++_svcSeq;
    _recall.emplace(addr, svc);

    // Pull the data back from the owning L1; when it arrives the
    // block flows home through the ordinary three-phase writeback,
    // whose buffer already serves racing forwards.
    Msg f;
    f.type = MsgType::FwdGetX;
    f.addr = addr;
    f.dst = l1OfSlot(unsigned(st.ownerSlot));
    f.requestor = _id;
    f.reqId = svc.svcId;
    send(std::move(f), g.params.l2Latency);
}

void
DirL2::evictLine(Line *line)
{
    const Addr addr = line->tag;
    const DirL2St &st = line->st;
    if (st.chip == ChipState::M || st.chip == ChipState::O) {
        if (!st.l2DataValid)
            panic("evicting owner line without data");
        // Three-phase writeback to the home directory.
        HomeWb wb;
        wb.value = st.value;
        wb.dirty = st.l2Dirty;
        _wbHome.emplace(addr, wb);
        ++stats.wbHomeOut;
        Msg m;
        m.type = MsgType::WbRequest;
        m.addr = addr;
        m.dst = ctx.topo.homeOf(addr);
        m.requestor = _id;
        send(std::move(m), g.params.l2Latency);
    }
    // Chip-S lines are dropped silently at the inter level.
    _array.invalidate(line);
}

void
DirL2::invalidateChipLine(Addr addr, Line *line)
{
    if (_home.count(addr)) {
        // A home transaction still needs the line as its landing slot.
        line->st = DirL2St{};
    } else {
        _array.invalidate(line);
    }
}

// ---------------------------------------------------------------------
// Deferral machinery (per-block busy states, paper Section 2)
// ---------------------------------------------------------------------

void
DirL2::defer(const Msg &m)
{
    ++stats.deferrals;
    _deferred[m.addr].push_back(m);
}

void
DirL2::pump(Addr addr)
{
    auto it = _deferred.find(addr);
    if (it == _deferred.end() || it->second.empty())
        return;
    if (busyForLocal(addr))
        return;
    const Msg next = it->second.front();
    it->second.pop_front();
    if (it->second.empty())
        _deferred.erase(it);
    // Re-dispatch from a fresh event to bound recursion, and keep
    // draining: an immediately-granted request creates no busy state,
    // so it must not strand the rest of the queue.
    ctx.eventq.schedule(0, [this, next]() {
        handleMsg(next);
        pump(next.addr);
    });
}

// ---------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------

void
DirL2::handleMsg(const Msg &msg)
{
    const Addr addr = msg.addr;
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
        // FIFO fairness: new requests may not overtake deferred ones.
        if (busyForLocal(addr) || _deferred.count(addr)) {
            defer(msg);
            pump(addr);
            return;
        }
        dispatchLocal(msg);
        return;

      case MsgType::WbRequest:
        onWbRequest(msg);
        return;

      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::Inv:
        startExtSvc(msg);
        return;

      case MsgType::Data:
      case MsgType::DataEx:
        if (msg.src.type == MachineType::Mem ||
            msg.src.cmp != _id.cmp) {
            onHomeData(msg);
        } else {
            onL1Data(msg);
        }
        return;

      case MsgType::AckCount: {
        auto it = _home.find(addr);
        if (it == _home.end())
            panic("AckCount without home transaction");
        it->second.extAcksNeeded = msg.acks;
        checkHomeComplete(addr);
        return;
      }

      case MsgType::InvAck:
        onInvAck(msg);
        return;

      case MsgType::WbData:
      case MsgType::WbCancel:
        onWbDataOrCancel(msg);
        return;

      case MsgType::WbGrant:
        onWbGrantFromHome(msg);
        return;

      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

// ---------------------------------------------------------------------
// Local requests
// ---------------------------------------------------------------------

void
DirL2::grantExclusiveLocal(Line *line, const MachineID &l1,
                           bool for_write)
{
    DirL2St &st = line->st;
    ++stats.grants;
    Msg r;
    r.type = MsgType::DataEx;
    r.addr = line->tag;
    r.dst = l1;
    r.requestor = l1;
    r.hasData = true;
    r.value = st.value;
    r.dirty = st.l2Dirty;
    st.ownerSlot = std::int8_t(l1Slot(l1));
    st.sharers = 0;
    st.l2DataValid = false;
    st.chip = ChipState::M;
    if (for_write)
        st.storedHere = true;
    send(std::move(r), g.params.l2Latency);
}

void
DirL2::dispatchLocal(const Msg &m)
{
    const Addr addr = m.addr;
    const bool is_write = m.type == MsgType::GetX;
    Line *line = _array.probe(addr);

    if (is_write)
        ++stats.localGetX;
    else
        ++stats.localGetS;

    if (line == nullptr || line->st.chip == ChipState::I) {
        startHomeTxn(m, line);
        return;
    }
    DirL2St &st = line->st;

    if (!is_write) {
        if (st.ownerSlot >= 0) {
            LocalTxn t;
            t.isWrite = false;
            t.l1Req = m.requestor;
            t.svcId = ++_svcSeq;
            t.waitingData = true;
            _local.emplace(addr, t);
            Msg f;
            f.type = MsgType::FwdGetS;
            f.addr = addr;
            f.dst = l1OfSlot(unsigned(st.ownerSlot));
            f.requestor = m.requestor;
            f.reqId = t.svcId;
            send(std::move(f), g.params.l2Latency);
            return;
        }
        if (!st.l2DataValid)
            panic("chip-valid line without data or owner");
        if (st.chip == ChipState::M && st.sharers == 0) {
            // Clean/dirty exclusive grant on a read.
            grantExclusiveLocal(line, m.requestor, false);
            return;
        }
        ++stats.grants;
        Msg r;
        r.type = MsgType::Data;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        r.hasData = true;
        r.value = st.value;
        st.sharers |= (1u << l1Slot(m.requestor));
        _array.touch(line);
        send(std::move(r), g.params.l2Latency);
        return;
    }

    // GetX.
    if (st.chip == ChipState::M) {
        if (st.ownerSlot >= 0) {
            LocalTxn t;
            t.isWrite = true;
            t.l1Req = m.requestor;
            t.svcId = ++_svcSeq;
            t.waitingData = true;
            _local.emplace(addr, t);
            Msg f;
            f.type = MsgType::FwdGetX;
            f.addr = addr;
            f.dst = l1OfSlot(unsigned(st.ownerSlot));
            f.requestor = m.requestor;
            f.reqId = t.svcId;
            send(std::move(f), g.params.l2Latency);
            return;
        }
        const std::uint8_t invs =
            st.sharers & ~std::uint8_t(1u << l1Slot(m.requestor));
        if (invs != 0) {
            LocalTxn t;
            t.isWrite = true;
            t.l1Req = m.requestor;
            t.svcId = ++_svcSeq;
            t.acksNeeded = std::popcount(invs);
            _local.emplace(addr, t);
            Msg inv;
            inv.type = MsgType::Inv;
            inv.addr = addr;
            inv.requestor = _id;
            inv.reqId = t.svcId;
            for (unsigned s = 0; s < 2 * ctx.topo.procsPerCmp; ++s) {
                if (invs & (1u << s)) {
                    inv.dst = l1OfSlot(s);
                    send(inv, g.params.l2Latency);
                }
            }
            st.sharers &= std::uint8_t(1u << l1Slot(m.requestor));
            return;
        }
        grantExclusiveLocal(line, m.requestor, true);
        return;
    }

    // Chip S or O: the home must invalidate remote sharers.
    startHomeTxn(m, line);
}

void
DirL2::startHomeTxn(const Msg &m, Line *line)
{
    const Addr addr = m.addr;
    const bool is_write = m.type == MsgType::GetX;
    if (line == nullptr)
        line = allocLine(addr);

    HomeTxn t;
    t.isWrite = is_write;
    t.l1Req = m.requestor;
    t.svcId = ++_svcSeq;

    if (is_write) {
        DirL2St &st = line->st;
        if (st.chip == ChipState::O && st.l2DataValid) {
            // Owner upgrade: we may complete on acks alone.
            t.hasData = true;
            t.value = st.value;
            t.dirty = st.l2Dirty;
        }
        const std::uint8_t invs =
            st.sharers & ~std::uint8_t(1u << l1Slot(m.requestor));
        if (invs != 0) {
            t.localAcksNeeded = std::popcount(invs);
            Msg inv;
            inv.type = MsgType::Inv;
            inv.addr = addr;
            inv.requestor = _id;
            inv.reqId = t.svcId;
            for (unsigned s = 0; s < 2 * ctx.topo.procsPerCmp; ++s) {
                if (invs & (1u << s)) {
                    inv.dst = l1OfSlot(s);
                    send(inv, g.params.l2Latency);
                }
            }
            st.sharers &= std::uint8_t(1u << l1Slot(m.requestor));
        }
        ++stats.homeGetX;
    } else {
        ++stats.homeGetS;
    }
    _home.emplace(addr, t);

    Msg req;
    req.type = m.type;
    req.addr = addr;
    req.dst = ctx.topo.homeOf(addr);
    req.requestor = _id;
    send(std::move(req), g.params.l2Latency);
}

void
DirL2::checkHomeComplete(Addr addr)
{
    auto it = _home.find(addr);
    if (it == _home.end())
        return;
    HomeTxn &t = it->second;
    if (!t.hasData || t.extAcksNeeded < 0 ||
        t.extAcksGot < t.extAcksNeeded ||
        t.localAcksGot < t.localAcksNeeded) {
        return;
    }

    Line *line = _array.probe(addr);
    if (line == nullptr)
        panic("home transaction lost its line");
    DirL2St &st = line->st;

    Msg unb;
    unb.addr = addr;
    unb.dst = ctx.topo.homeOf(addr);
    unb.requestor = _id;

    if (t.isWrite || t.exclusive) {
        st.chip = ChipState::M;
        st.value = t.value;
        st.l2Dirty = t.dirty;
        st.l2DataValid = false;
        st.sharers = 0;
        st.ownerSlot = std::int8_t(l1Slot(t.l1Req));
        if (t.isWrite)
            st.storedHere = true;
        ++stats.grants;
        Msg r;
        r.type = MsgType::DataEx;
        r.addr = addr;
        r.dst = t.l1Req;
        r.requestor = t.l1Req;
        r.hasData = true;
        r.value = t.value;
        r.dirty = t.dirty;
        send(std::move(r), g.params.l2Latency);
        unb.type = MsgType::UnblockEx;
    } else {
        st.chip = ChipState::S;
        st.value = t.value;
        st.l2Dirty = false;
        st.l2DataValid = true;
        st.sharers |= (1u << l1Slot(t.l1Req));
        ++stats.grants;
        Msg r;
        r.type = MsgType::Data;
        r.addr = addr;
        r.dst = t.l1Req;
        r.requestor = t.l1Req;
        r.hasData = true;
        r.value = t.value;
        send(std::move(r), g.params.l2Latency);
        unb.type = MsgType::Unblock;
    }
    send(std::move(unb), g.params.l2Latency);
    _array.touch(line);
    _home.erase(it);
    pump(addr);
}

void
DirL2::onHomeData(const Msg &m)
{
    auto it = _home.find(m.addr);
    if (it == _home.end())
        panic("home data without transaction at %s",
              _id.toString().c_str());
    HomeTxn &t = it->second;
    t.hasData = true;
    t.value = m.value;
    t.dirty = m.dirty;
    if (m.type == MsgType::DataEx)
        t.exclusive = true;
    if (t.extAcksNeeded < 0)
        t.extAcksNeeded = m.acks;
    checkHomeComplete(m.addr);
}

// ---------------------------------------------------------------------
// Local forwards and acknowledgments
// ---------------------------------------------------------------------

void
DirL2::onL1Data(const Msg &m)
{
    const Addr addr = m.addr;

    auto lit = _local.find(addr);
    if (lit != _local.end() && lit->second.svcId == m.reqId) {
        LocalTxn &t = lit->second;
        Line *line = _array.probe(addr);
        if (line == nullptr)
            panic("local transaction lost its line");
        DirL2St &st = line->st;
        const int old_owner = st.ownerSlot;

        ++stats.grants;
        Msg r;
        r.addr = addr;
        r.dst = t.l1Req;
        r.requestor = t.l1Req;
        r.hasData = true;
        r.value = m.value;

        if (!t.isWrite && m.type == MsgType::Data) {
            // Owner downgraded; the L2 copy becomes the on-chip
            // authority and both L1s end up sharers.
            st.l2DataValid = true;
            st.l2Dirty = m.dirty;
            st.value = m.value;
            if (old_owner >= 0)
                st.sharers |= (1u << unsigned(old_owner));
            st.ownerSlot = -1;
            st.sharers |= (1u << l1Slot(t.l1Req));
            r.type = MsgType::Data;
        } else {
            // Migratory read grant or write grant: new exclusive L1.
            st.ownerSlot = std::int8_t(l1Slot(t.l1Req));
            st.sharers = 0;
            st.l2DataValid = false;
            if (t.isWrite)
                st.storedHere = true;
            r.type = MsgType::DataEx;
            r.dirty = m.dirty;
        }
        send(std::move(r), g.params.l2Latency);
        _local.erase(lit);
        pump(addr);
        return;
    }

    auto rit = _recall.find(addr);
    if (rit != _recall.end() && rit->second.svcId == m.reqId) {
        // Inclusion-victim recall completed: write the line home.
        _recall.erase(rit);
        HomeWb wb;
        wb.value = m.value;
        wb.dirty = m.dirty;
        _wbHome.emplace(addr, wb);
        ++stats.wbHomeOut;
        Msg req;
        req.type = MsgType::WbRequest;
        req.addr = addr;
        req.dst = ctx.topo.homeOf(addr);
        req.requestor = _id;
        send(std::move(req), g.params.l2Latency);
        pump(addr);
        return;
    }

    auto eit = _ext.find(addr);
    if (eit != _ext.end() && eit->second.svcId == m.reqId) {
        ExtSvc &svc = eit->second;
        Line *line = _array.probe(addr);
        if (line == nullptr)
            panic("external service lost its line");
        DirL2St &st = line->st;
        svc.waitingData = false;
        svc.value = m.value;
        svc.dirty = m.dirty;

        if (svc.isWrite || m.type == MsgType::DataEx) {
            // Owner L1 gave up the block (write steal or migratory).
            st.ownerSlot = -1;
            svc.migratory = !svc.isWrite;
        } else {
            // Owner downgraded to S; L2 copy now authoritative.
            if (st.ownerSlot >= 0)
                st.sharers |= (1u << unsigned(st.ownerSlot));
            st.ownerSlot = -1;
            st.l2DataValid = true;
            st.l2Dirty = m.dirty;
            st.value = m.value;
        }
        if (svc.acksGot >= svc.acksNeeded)
            finishExtSvc(addr);
        return;
    }

    panic("%s: unmatched L1 data response", _id.toString().c_str());
}

void
DirL2::onInvAck(const Msg &m)
{
    const Addr addr = m.addr;
    const bool from_remote = m.src.cmp != _id.cmp ||
                             m.src.type == MachineType::Mem;

    if (from_remote) {
        auto it = _home.find(addr);
        if (it == _home.end())
            panic("remote InvAck without home transaction");
        ++it->second.extAcksGot;
        checkHomeComplete(addr);
        return;
    }

    // Local ack: route by service id.
    auto hit = _home.find(addr);
    if (hit != _home.end() && hit->second.svcId == m.reqId) {
        ++hit->second.localAcksGot;
        checkHomeComplete(addr);
        return;
    }
    auto lit = _local.find(addr);
    if (lit != _local.end() && lit->second.svcId == m.reqId) {
        LocalTxn &t = lit->second;
        ++t.acksGot;
        if (t.acksGot >= t.acksNeeded && !t.waitingData) {
            Line *line = _array.probe(addr);
            if (line == nullptr)
                panic("local transaction lost its line");
            grantExclusiveLocal(line, t.l1Req, t.isWrite);
            _local.erase(lit);
            pump(addr);
        }
        return;
    }
    auto eit = _ext.find(addr);
    if (eit != _ext.end() && eit->second.svcId == m.reqId) {
        ExtSvc &svc = eit->second;
        ++svc.acksGot;
        if (svc.acksGot >= svc.acksNeeded && !svc.waitingData)
            finishExtSvc(addr);
        return;
    }
    // Ack for a fire-and-forget eviction invalidation: ignore.
}

// ---------------------------------------------------------------------
// Home-forwarded requests (never deferred behind home-bound work)
// ---------------------------------------------------------------------

void
DirL2::startExtSvc(const Msg &m)
{
    const Addr addr = m.addr;

    // Strictly-local work completes without home involvement; defer
    // behind it (bounded, deadlock-free). Never defer behind _home.
    if (_local.count(addr) || _wbLocal.count(addr) ||
        _recall.count(addr)) {
        defer(m);
        return;
    }
    if (_ext.count(addr))
        panic("home forwarded two requests for one block");

    // Block mid-writeback to home: serve from the buffer.
    auto wit = _wbHome.find(addr);
    if (wit != _wbHome.end()) {
        HomeWb &wb = wit->second;
        Msg r;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        r.reqId = m.reqId;
        if (m.type == MsgType::Inv) {
            r.type = MsgType::InvAck;
            r.acks = 1;
        } else {
            r.hasData = true;
            r.value = wb.value;
            r.dirty = wb.dirty;
            r.acks = m.acks;
            if (m.type == MsgType::FwdGetX) {
                r.type = MsgType::DataEx;
                wb.cancelled = true;
            } else {
                r.type = MsgType::Data;
                r.dirty = false;
            }
        }
        send(std::move(r), g.params.l2Latency);
        return;
    }

    Line *line = _array.probe(addr);

    if (m.type == MsgType::Inv) {
        ++stats.invsIn;
        if (line == nullptr || line->st.chip == ChipState::I ||
            line->st.sharers == 0) {
            if (line != nullptr)
                invalidateChipLine(addr, line);
            Msg ack;
            ack.type = MsgType::InvAck;
            ack.addr = addr;
            ack.dst = m.requestor;
            ack.requestor = _id;
            ack.acks = 1;
            send(std::move(ack), g.params.l2Latency);
            return;
        }
        ExtSvc svc;
        svc.isInv = true;
        svc.remote = m.requestor;
        svc.svcId = ++_svcSeq;
        svc.acksNeeded = std::popcount(line->st.sharers);
        Msg inv;
        inv.type = MsgType::Inv;
        inv.addr = addr;
        inv.requestor = _id;
        inv.reqId = svc.svcId;
        for (unsigned s = 0; s < 2 * ctx.topo.procsPerCmp; ++s) {
            if (line->st.sharers & (1u << s)) {
                inv.dst = l1OfSlot(s);
                send(inv, g.params.l2Latency);
            }
        }
        line->st.sharers = 0;
        _ext.emplace(addr, svc);
        return;
    }

    ++stats.fwdsIn;
    const bool wants_x = m.type == MsgType::FwdGetX;
    if (line == nullptr || line->st.chip == ChipState::I)
        panic("%s: forward but chip holds nothing",
              _id.toString().c_str());
    DirL2St &st = line->st;

    ExtSvc svc;
    svc.isWrite = wants_x;
    svc.remote = m.requestor;
    svc.fwdAcks = m.acks;
    svc.svcId = ++_svcSeq;

    if (st.ownerSlot >= 0) {
        svc.waitingData = true;
        Msg f;
        f.type = m.type;
        f.addr = addr;
        f.dst = l1OfSlot(unsigned(st.ownerSlot));
        f.requestor = m.requestor;
        f.reqId = svc.svcId;
        send(std::move(f), g.params.l2Latency);
        _ext.emplace(addr, svc);
        return;
    }

    if (!st.l2DataValid)
        panic("forward to chip without data");
    svc.value = st.value;
    svc.dirty = st.l2Dirty;

    // msg.owner on a FwdGetS means the home saw no other sharers, so
    // a migratory transfer is permitted.
    svc.migratory = !wants_x && g.params.migratory &&
                    st.chip == ChipState::M && st.storedHere &&
                    m.owner;

    const std::uint8_t invs =
        (wants_x || svc.migratory) ? st.sharers : 0;
    if (invs != 0) {
        svc.acksNeeded = std::popcount(invs);
        Msg inv;
        inv.type = MsgType::Inv;
        inv.addr = addr;
        inv.requestor = _id;
        inv.reqId = svc.svcId;
        for (unsigned s = 0; s < 2 * ctx.topo.procsPerCmp; ++s) {
            if (invs & (1u << s)) {
                inv.dst = l1OfSlot(s);
                send(inv, g.params.l2Latency);
            }
        }
        st.sharers = 0;
        _ext.emplace(addr, svc);
        return;
    }

    _ext.emplace(addr, svc);
    finishExtSvc(addr);
}

void
DirL2::finishExtSvc(Addr addr)
{
    auto it = _ext.find(addr);
    if (it == _ext.end())
        panic("finishing unknown external service");
    const ExtSvc svc = it->second;
    _ext.erase(it);

    Line *line = _array.probe(addr);
    Msg r;
    r.addr = addr;
    r.dst = svc.remote;
    r.requestor = svc.remote;
    r.acks = svc.fwdAcks;

    if (svc.isInv) {
        r.type = MsgType::InvAck;
        r.acks = 1;
        if (line != nullptr)
            invalidateChipLine(addr, line);
        send(std::move(r), g.params.l2Latency);
    } else if (svc.isWrite || svc.migratory) {
        r.type = MsgType::DataEx;
        r.hasData = true;
        r.value = svc.value;
        r.dirty = svc.dirty;
        if (svc.migratory)
            ++stats.migratoryChip;
        if (line != nullptr)
            invalidateChipLine(addr, line);
        // A pending upgrade just lost its data.
        auto hit = _home.find(addr);
        if (hit != _home.end())
            hit->second.hasData = false;
        send(std::move(r), g.params.l2Latency);
    } else {
        // Shared forward: we remain the owner chip.
        r.type = MsgType::Data;
        r.hasData = true;
        r.value = svc.value;
        r.dirty = false;
        if (line != nullptr)
            line->st.chip = ChipState::O;
        send(std::move(r), g.params.l2Latency);
    }
    pump(addr);
}

// ---------------------------------------------------------------------
// Writebacks
// ---------------------------------------------------------------------

void
DirL2::onWbRequest(const Msg &m)
{
    const Addr addr = m.addr;
    if (busyForLocal(addr)) {
        defer(m);
        return;
    }
    WbLocal svc;
    svc.l1 = m.requestor;
    _wbLocal.emplace(addr, svc);
    Msg grant_msg;
    grant_msg.type = MsgType::WbGrant;
    grant_msg.addr = addr;
    grant_msg.dst = m.requestor;
    grant_msg.requestor = m.requestor;
    send(std::move(grant_msg), g.params.l2Latency);
}

void
DirL2::onWbDataOrCancel(const Msg &m)
{
    const Addr addr = m.addr;
    auto it = _wbLocal.find(addr);
    if (it == _wbLocal.end())
        panic("writeback data without grant window");
    ++stats.wbLocalIn;

    if (m.type == MsgType::WbData) {
        Line *line = _array.probe(addr);
        if (line == nullptr)
            panic("local writeback to missing line");
        DirL2St &st = line->st;
        st.ownerSlot = -1;
        st.l2DataValid = true;
        if (m.hasData) {
            st.value = m.value;
            st.l2Dirty = true;
        }
        _array.touch(line);
    }
    _wbLocal.erase(it);
    pump(addr);
}

void
DirL2::onWbGrantFromHome(const Msg &m)
{
    const Addr addr = m.addr;
    auto it = _wbHome.find(addr);
    if (it == _wbHome.end())
        panic("home WbGrant without pending writeback");
    const HomeWb wb = it->second;
    _wbHome.erase(it);

    Msg r;
    r.addr = addr;
    r.dst = ctx.topo.homeOf(addr);
    r.requestor = _id;
    if (wb.cancelled) {
        r.type = MsgType::WbCancel;
    } else {
        r.type = MsgType::WbData;
        r.hasData = wb.dirty;
        r.value = wb.value;
        r.dirty = wb.dirty;
    }
    send(std::move(r), g.params.l2Latency);
    pump(addr);
}

} // namespace tokencmp
