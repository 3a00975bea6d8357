/**
 * @file
 * DirectoryCMP L2 bank: the intra-CMP directory.
 *
 * Each bank tracks local L1 sharers/owner per line, the chip's
 * inter-CMP rights, and serializes transactions with per-block busy
 * states plus deferred-request queues (paper Section 2). It is both
 * the requester toward the inter-CMP directory (home) and the servant
 * of forwarded requests/invalidations from other chips. All data
 * responses route through this controller — the intra-CMP indirection
 * the paper contrasts with TokenCMP's direct responses.
 *
 * Deadlock discipline: locally-initiated work (toward home) may be
 * deferred; home-forwarded work (FwdGetS/FwdGetX/Inv) is never
 * deferred behind home-dependent work — it is served immediately from
 * current state, or behind strictly-local work that completes without
 * home involvement (bounded), keeping the wait-for graph acyclic.
 */

#ifndef TOKENCMP_DIRECTORY_DIR_L2_HH
#define TOKENCMP_DIRECTORY_DIR_L2_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "directory/dir_common.hh"
#include "directory/dir_state.hh"
#include "mem/cache_array.hh"
#include "net/controller.hh"

namespace tokencmp {

/** L2 bank controller for DirectoryCMP. */
class DirL2 : public Controller
{
  public:
    struct Stats
    {
        std::uint64_t localGetS = 0;
        std::uint64_t localGetX = 0;
        std::uint64_t homeGetS = 0;
        std::uint64_t homeGetX = 0;
        std::uint64_t fwdsIn = 0;
        std::uint64_t invsIn = 0;
        std::uint64_t grants = 0;
        std::uint64_t migratoryChip = 0;
        std::uint64_t deferrals = 0;
        std::uint64_t wbHomeOut = 0;
        std::uint64_t wbLocalIn = 0;
    };

    DirL2(SimContext &ctx, MachineID id, DirGlobals &g,
          std::uint64_t size_bytes, unsigned assoc);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Chip-level state of a block (tests). */
    ChipState peekChip(Addr addr) const;

    /** Print in-flight transactions and deferred queues (debugging). */
    void debugDump() const;

  private:
    using Array = CacheArray<DirL2St>;
    using Line = Array::Line;

    /** Requester-side transaction toward the home directory. */
    struct HomeTxn
    {
        bool isWrite = false;
        MachineID l1Req;
        bool hasData = false;
        bool dirty = false;
        bool exclusive = false;
        std::uint64_t value = 0;
        int extAcksNeeded = -1;  //!< unknown until home tells us
        int extAcksGot = 0;
        int localAcksNeeded = 0;
        int localAcksGot = 0;
        MsgSeq svcId = 0;
    };

    /** Local transaction (forward to a local owner / local invs). */
    struct LocalTxn
    {
        bool isWrite = false;
        MachineID l1Req;
        MsgSeq svcId = 0;
        int acksNeeded = 0;
        int acksGot = 0;
        bool waitingData = false;
    };

    /** Service of a home-forwarded request or invalidation. */
    struct ExtSvc
    {
        bool isWrite = false;   //!< FwdGetX
        bool isInv = false;
        bool migratory = false;
        MachineID remote;       //!< requesting chip's L2 bank
        int fwdAcks = 0;        //!< ack count to embed in the response
        MsgSeq svcId = 0;
        int acksNeeded = 0;
        int acksGot = 0;
        bool waitingData = false;
        std::uint64_t value = 0;
        bool dirty = false;
    };

    /** Local L1 writeback in its grant window. */
    struct WbLocal
    {
        MachineID l1;
    };

    /** Our own chip-to-home writeback awaiting the grant. */
    struct HomeWb
    {
        std::uint64_t value = 0;
        bool dirty = false;
        bool cancelled = false;
    };

    /** Inclusion-victim recall: pulling a line back from its L1. */
    struct RecallSvc
    {
        MsgSeq svcId = 0;
    };

    unsigned l1Slot(const MachineID &id) const;
    MachineID l1OfSlot(unsigned slot) const;

    bool
    busyAny(Addr a) const
    {
        return _home.count(a) || _local.count(a) ||
               _wbLocal.count(a) || _wbHome.count(a) ||
               _recall.count(a);
    }
    bool
    busyForLocal(Addr a) const
    {
        return busyAny(a) || _ext.count(a);
    }

    Line *allocLine(Addr addr);
    void evictLine(Line *line);
    void startRecall(Line *victim);
    void invalidateChipLine(Addr addr, Line *line);
    void defer(const Msg &m);
    void pump(Addr addr);

    void dispatchLocal(const Msg &m);
    void startHomeTxn(const Msg &m, Line *line);
    void grantExclusiveLocal(Line *line, const MachineID &l1,
                             bool for_write);
    void checkHomeComplete(Addr addr);

    void startExtSvc(const Msg &m);
    void finishExtSvc(Addr addr);

    void onHomeData(const Msg &m);
    void onL1Data(const Msg &m);
    void onInvAck(const Msg &m);
    void onWbRequest(const Msg &m);
    void onWbDataOrCancel(const Msg &m);
    void onWbGrantFromHome(const Msg &m);

    Array _array;
    std::unordered_map<Addr, HomeTxn> _home;
    std::unordered_map<Addr, LocalTxn> _local;
    std::unordered_map<Addr, ExtSvc> _ext;
    std::unordered_map<Addr, WbLocal> _wbLocal;
    std::unordered_map<Addr, HomeWb> _wbHome;
    std::unordered_map<Addr, RecallSvc> _recall;
    std::unordered_map<Addr, std::deque<Msg>> _deferred;
    MsgSeq _svcSeq = 0;

    DirGlobals &g;
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_L2_HH
