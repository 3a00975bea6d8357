#include "directory/dir_mem.hh"

#include <bit>
#include <cstdio>

#include "sim/logging.hh"

namespace tokencmp {

DirMem::DirMem(SimContext &ctx, MachineID id, DirGlobals &g)
    : Controller(ctx, id), g(g)
{
    if (id.type != MachineType::Mem)
        panic("DirMem requires a Mem machine id");
}

DirMem::Entry &
DirMem::entryFor(Addr addr)
{
    return _dir[blockAlign(addr)];
}

DirState
DirMem::peekState(Addr addr) const
{
    auto it = _dir.find(blockAlign(addr));
    return it == _dir.end() ? DirState::Uncached : it->second.state;
}

void
DirMem::debugDump() const
{
    for (const auto &[addr, e] : _dir) {
        if (!e.busy && e.deferred.empty())
            continue;
        std::fprintf(stderr,
                     "  %s block %llx: state=%s busy=%d owner=%d "
                     "presence=%x deferred=%zu",
                     _id.toString().c_str(),
                     static_cast<unsigned long long>(addr),
                     dirStateName(e.state), e.busy, int(e.ownerCmp),
                     unsigned(e.presence), e.deferred.size());
        for (const Msg &m : e.deferred)
            std::fprintf(stderr, " [%s from %s]", msgTypeName(m.type),
                         m.requestor.toString().c_str());
        std::fprintf(stderr, "\n");
    }
}

void
DirMem::handleMsg(const Msg &msg)
{
    Entry &e = entryFor(msg.addr);
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::WbRequest:
        if (e.busy) {
            ++stats.deferrals;
            e.deferred.push_back(msg);
            return;
        }
        dispatch(msg, e);
        return;

      case MsgType::Unblock:
      case MsgType::UnblockEx:
        onUnblock(msg, e);
        return;

      case MsgType::WbData:
      case MsgType::WbCancel:
        onWbData(msg, e);
        return;

      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
DirMem::dispatch(const Msg &m, Entry &e)
{
    e.busy = true;
    switch (m.type) {
      case MsgType::GetS:
        onGetS(m, e);
        return;
      case MsgType::GetX:
        onGetX(m, e);
        return;
      case MsgType::WbRequest:
        onWbRequest(m, e);
        return;
      default:
        panic("bad dispatch");
    }
}

void
DirMem::release(Addr addr, Entry &e)
{
    e.busy = false;
    if (e.deferred.empty())
        return;
    const Msg next = e.deferred.front();
    e.deferred.pop_front();
    ctx.eventq.schedule(0, [this, next]() { handleMsg(next); });
    (void)addr;
}

void
DirMem::sendInvs(Addr addr, Entry &e, std::uint8_t targets,
                 const MachineID &collector)
{
    Msg inv;
    inv.type = MsgType::Inv;
    inv.addr = addr;
    inv.requestor = collector;
    for (unsigned c = 0; c < ctx.topo.numCmps; ++c) {
        if (targets & (1u << c)) {
            inv.dst = ctx.topo.l2BankFor(c, addr);
            send(inv, dispatchLat(false));
            ++stats.invalidations;
        }
    }
    e.presence &= ~targets;
}

void
DirMem::onGetS(const Msg &m, Entry &e)
{
    ++stats.getS;
    const Addr addr = blockAlign(m.addr);

    switch (e.state) {
      case DirState::Uncached: {
        // Exclusive-clean grant (MOESI E) to the sole requester.
        ++stats.memResponses;
        Msg r;
        r.type = MsgType::DataEx;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        r.hasData = true;
        r.value = g.store.read(addr);
        r.dirty = false;
        r.acks = 0;
        send(std::move(r), dispatchLat(true));
        return;
      }
      case DirState::Shared: {
        ++stats.memResponses;
        Msg r;
        r.type = MsgType::Data;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        r.hasData = true;
        r.value = g.store.read(addr);
        r.acks = 0;
        send(std::move(r), dispatchLat(true));
        return;
      }
      case DirState::Owned:
      case DirState::Modified: {
        // Sharing miss: the indirection TokenCMP avoids.
        ++stats.forwards;
        Msg f;
        f.type = MsgType::FwdGetS;
        f.addr = addr;
        f.dst = ctx.topo.l2BankFor(unsigned(e.ownerCmp), addr);
        f.requestor = m.requestor;
        f.acks = 0;
        // Migratory transfer permitted only with no other sharers.
        f.owner = e.presence == 0;
        send(std::move(f), dispatchLat(false));
        return;
      }
    }
}

void
DirMem::onGetX(const Msg &m, Entry &e)
{
    ++stats.getX;
    const Addr addr = blockAlign(m.addr);
    const unsigned req_cmp = m.requestor.cmp;
    const std::uint8_t req_bit = std::uint8_t(1u << req_cmp);

    switch (e.state) {
      case DirState::Uncached: {
        ++stats.memResponses;
        Msg r;
        r.type = MsgType::DataEx;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        r.hasData = true;
        r.value = g.store.read(addr);
        r.acks = 0;
        send(std::move(r), dispatchLat(true));
        return;
      }
      case DirState::Shared: {
        const std::uint8_t invs = e.presence & ~req_bit;
        sendInvs(addr, e, invs, m.requestor);
        ++stats.memResponses;
        Msg r;
        r.type = MsgType::DataEx;
        r.addr = addr;
        r.dst = m.requestor;
        r.requestor = m.requestor;
        r.hasData = true;
        r.value = g.store.read(addr);
        r.acks = std::popcount(invs);
        send(std::move(r), dispatchLat(true));
        return;
      }
      case DirState::Owned:
      case DirState::Modified: {
        if (unsigned(e.ownerCmp) == req_cmp) {
            // Owner upgrade: acks only, no data.
            const std::uint8_t invs = e.presence & ~req_bit;
            sendInvs(addr, e, invs, m.requestor);
            Msg a;
            a.type = MsgType::AckCount;
            a.addr = addr;
            a.dst = m.requestor;
            a.requestor = m.requestor;
            a.acks = std::popcount(invs);
            send(std::move(a), dispatchLat(false));
            return;
        }
        const std::uint8_t invs = e.presence & ~req_bit;
        sendInvs(addr, e, invs, m.requestor);
        ++stats.forwards;
        Msg f;
        f.type = MsgType::FwdGetX;
        f.addr = addr;
        f.dst = ctx.topo.l2BankFor(unsigned(e.ownerCmp), addr);
        f.requestor = m.requestor;
        f.acks = std::popcount(invs);
        send(std::move(f), dispatchLat(false));
        return;
      }
    }
}

void
DirMem::onUnblock(const Msg &m, Entry &e)
{
    if (!e.busy)
        panic("unblock while not busy");
    const unsigned req_cmp = m.requestor.cmp;

    if (m.type == MsgType::UnblockEx) {
        e.state = DirState::Modified;
        e.ownerCmp = std::int8_t(req_cmp);
        e.presence = 0;
    } else {
        e.presence |= std::uint8_t(1u << req_cmp);
        e.state = e.ownerCmp >= 0 ? DirState::Owned : DirState::Shared;
    }

    // Directory update occupies the controller briefly before the
    // next deferred request dispatches.
    ctx.eventq.schedule(g.params.memCtrlLatency, [this, addr = m.addr]() {
        Entry &entry = entryFor(addr);
        release(blockAlign(addr), entry);
    });
}

void
DirMem::onWbRequest(const Msg &m, Entry &e)
{
    (void)e;
    Msg r;
    r.type = MsgType::WbGrant;
    r.addr = m.addr;
    r.dst = m.requestor;
    r.requestor = m.requestor;
    send(std::move(r), dispatchLat(false));
}

void
DirMem::onWbData(const Msg &m, Entry &e)
{
    if (!e.busy)
        panic("writeback data while not busy");
    ++stats.writebacks;

    if (m.type == MsgType::WbData) {
        const unsigned src_cmp = m.src.cmp;
        if (m.hasData)
            g.store.write(m.addr, m.value);
        if (e.ownerCmp == std::int8_t(src_cmp)) {
            e.ownerCmp = -1;
            e.state = e.presence != 0 ? DirState::Shared
                                      : DirState::Uncached;
        } else {
            // Stale writeback from a chip that lost ownership; drop.
            e.presence &= ~std::uint8_t(1u << src_cmp);
        }
    }

    ctx.eventq.schedule(g.params.memCtrlLatency, [this, addr = m.addr]() {
        Entry &entry = entryFor(addr);
        release(blockAlign(addr), entry);
    });
}

} // namespace tokencmp
