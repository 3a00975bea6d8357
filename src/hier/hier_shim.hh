/**
 * @file
 * Per-CMP shim between the intra-CMP token space and the inter-CMP
 * MOESI directory (the hier family's tentpole controller).
 *
 * One shim sits at each L2 bank slot and plays three roles for its
 * address slice:
 *
 *  1. *Intra-CMP token home*: the CMP's T tokens for every block are
 *     materialized here (the per-CMP analogue of TokenMem), including
 *     the arbiter of the persistent-request scheme — local L1s
 *     arbitrate at the shim, never off-chip.
 *  2. *Chip agent*: towards the home directory the shim is the whole
 *     CMP — it issues GetS/GetX, collects remote invalidation acks,
 *     unblocks the home, and runs the three-phase writeback (the DirL2
 *     role, re-expressed over token state).
 *  3. *Translator*: external directory messages become intra-CMP token
 *     recalls; local token counts become directory unblocks/acks.
 *
 * The load-bearing safety rule is the **anchor invariant**: while the
 * chip is not in M, the shim retains the intra-CMP *owner* token. A
 * local write needs all T tokens (hence the owner token, hence chip
 * M), so no L1 can ever write beyond the chip's directory rights; and
 * chip S data is always clean, so an external invalidation can never
 * destroy dirty data. The owner token leaves the shim only at chip M.
 *
 * Derived invariants relied on below:
 *  - chip == I  =>  the shim holds all T tokens (and no local L1 holds
 *    any permission); established at block init, by full recalls, and
 *    by the tokens==T eviction gate.
 *  - chip in {S,O}  =>  the shim holds the owner token *and* valid
 *    data (it never gives the owner away below M, and data arrived
 *    with the grant or with a recalled owner token).
 *  - home busy/defer serialization  =>  fetch responses never
 *    interleave with external forwards for the same block; externals
 *    that *race* an in-flight fetch were dispatched before it and are
 *    processed against the current chip state (the completion handler
 *    keys off message type — Data/DataEx vs AckCount — not off the
 *    state the fetch was issued from).
 *
 * Races handled (the paper's Section 6 multi-CMP corner cases):
 *  - external invalidation vs in-flight local persistent request: the
 *    recall is a direct Inv broadcast *outside* the arbiter (using the
 *    arbiter would deadlock behind the very request being invalidated)
 *    and the shim is a pure token sink while recalling; periodic
 *    deterministic re-broadcast sweeps tokens that persistent-table
 *    forwarding keeps routing to the local initiator, so the recall
 *    converges even against an activated local write.
 *  - writeback vs forward: a racing Fwd-GetX/GetS/Inv is served from
 *    the writeback buffer (Fwd-GetX cancels the writeback), exactly
 *    like the directory chip agent.
 *  - upgrade losing its data: a Fwd-GetX arriving before an owner
 *    upgrade's AckCount clears the preset data; the home later answers
 *    the demoted GetX with a full DataEx.
 */

#ifndef TOKENCMP_HIER_HIER_SHIM_HH
#define TOKENCMP_HIER_HIER_SHIM_HH

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/token_common.hh"
#include "directory/dir_common.hh"
#include "directory/dir_state.hh"
#include "hier/residency_queue.hh"

namespace tokencmp {

/** Two-level shim: intra-CMP token home + inter-CMP directory agent. */
class HierShim : public TokenController
{
  public:
    struct Stats
    {
        std::uint64_t localServes = 0;
        std::uint64_t fetches = 0;
        std::uint64_t fetchUpgrades = 0;
        std::uint64_t extInvs = 0;
        std::uint64_t extFwdGetS = 0;
        std::uint64_t extFwdGetX = 0;
        std::uint64_t migratoryChip = 0;
        std::uint64_t recallsFull = 0;
        std::uint64_t recallsDown = 0;
        std::uint64_t recallRebroadcasts = 0;
        std::uint64_t writebacksOut = 0;
        std::uint64_t writebacksCancelled = 0;
        std::uint64_t silentDrops = 0;
        std::uint64_t arbActivations = 0;
        std::uint64_t arbQueueMax = 0;
    };

    /**
     * @param tg  this CMP's token globals (auditor tracks the CMP's
     *            private T-token space)
     * @param dg  the inter-CMP directory globals (home store is the
     *            system's data authority)
     * @param residency_cap soft cap on blocks held by this shim with
     *            chip rights (0 = unbounded); exceeding it starts
     *            chip-level evictions/writebacks FIFO-ish.
     */
    HierShim(SimContext &ctx, MachineID id, TokenGlobals &tg,
             DirGlobals &dg, unsigned residency_cap);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Test hooks: intra tokens held at the shim / chip-level state. */
    int tokensHeld(Addr addr) const;
    bool ownerHeld(Addr addr) const;
    ChipState peekChip(Addr addr) const;

    /** Test hook: residency-queue entries examined so far (a host-cost
     *  probe, deliberately not a simulated statistic). */
    std::uint64_t residencyVisits() const { return _residency.visits(); }

  protected:
    void onPersistentTableChange(Addr addr) override;

  private:
    enum class Fetch : std::uint8_t { None, GetS, GetX };
    enum class Recall : std::uint8_t { None, Down, Full };

    /** Per-block two-level state. */
    struct Blk
    {
        Addr addr = 0;             //!< block-aligned address

        // Intra half: the CMP's token-space home (TokenMem analogue).
        int tokens = 0;
        bool owner = false;
        bool validData = false;
        bool dirty = false;        //!< value differs from home store
        std::uint64_t value = 0;

        // Inter half: chip rights and migratory hint.
        ChipState chip = ChipState::I;
        bool chipStored = false;   //!< a local write happened at M

        // One outstanding home fetch per block.
        Fetch fetch = Fetch::None;
        bool fetchHasData = false;
        bool fetchExclusive = false;
        bool fetchDirty = false;
        std::uint64_t fetchValue = 0;
        int acksNeeded = -1;       //!< -1 until Data/DataEx/AckCount
        int acksGot = 0;
        MachineID fetchFor;        //!< demand L1 to serve on completion
        bool fetchForWrite = false;
        bool fetchForValid = false;

        // External service in progress (recall of intra tokens).
        Recall recall = Recall::None;
        std::uint64_t recallGen = 0;  //!< invalidates stale retry events
        bool extPending = false;
        Msg ext{};                 //!< the Fwd/Inv being serviced

        // Three-phase writeback to the home.
        bool wbPending = false;
        bool wbDirty = false;
        bool wbCancelled = false;
        std::uint64_t wbValue = 0;

        // Persistent data-only dedup (chip S/O read with no spare
        // tokens must still supply data — exactly once per entry).
        std::uint8_t prServedPrio = 0xff;
        MsgSeq prServedSeq = 0;

        ResidencySlot residency;   //!< residency-queue membership
    };

    /** One queued intra-CMP arbiter request (TokenMem clone). */
    struct ArbReq
    {
        Addr addr = 0;
        bool isRead = false;
        std::uint8_t prio = 0;
        MsgSeq seq = 0;
        MachineID initiator;
    };

    /** The block's state, created on first use. Every handler that
     *  may change a block reaches it through here, which is what lets
     *  the residency queue watch for blocks turning evictable. */
    Blk &ensureBlock(Addr addr);

    // Intra half.
    void onLocalTransient(const Msg &m);
    bool serveLocal(Addr addr, Blk &b, const MachineID &requestor,
                    bool is_write);
    void onTokensIn(const Msg &m);
    void forwardPersistentTokens(Addr addr);

    // Inter half.
    void startFetch(Addr addr, Blk &b, const MachineID &demand,
                    bool is_write);
    void onHomeData(const Msg &m);
    void onInvAck(const Msg &m);
    void checkFetchComplete(Addr addr, Blk &b);
    void startExternal(const Msg &m);
    void tryFinishExternal(Addr addr, Blk &b);
    void startRecall(Addr addr, Blk &b, Recall kind);
    void broadcastRecall(Addr addr, Recall kind);
    void scheduleRecallRetry(Addr addr, std::uint64_t gen);
    void checkRecallDone(Addr addr, Blk &b);
    void onWbGrant(const Msg &m);

    // Residency management.
    void maybeEvict(Blk &just_fetched);
    bool evictable(const Blk &b) const;
    void startWb(Addr addr, Blk &b);
    /** Changing processor `prio`'s persistent entry may make its
     *  block evictable: let the residency queue re-check it. */
    void touchPersistent(unsigned prio);

    // Intra-CMP persistent-request arbiter (TokenMem clone, but the
    // activate/deactivate broadcast only spans this CMP's L1s).
    void onArbRequest(const Msg &m);
    void onArbDone(const Msg &m);
    void activateArb(const ArbReq &req);

    DirGlobals &dg;
    unsigned _residencyCap;

    std::unordered_map<Addr, Blk> _blocks;

    bool _arbBusy = false;
    ArbReq _arbActive;
    std::deque<ArbReq> _arbQueue;
    std::set<std::pair<std::uint8_t, MsgSeq>> _arbOrphans;

    /**
     * Blocks holding chip rights, in FIFO eviction order. `_blocks` is
     * never erased, so entries can hold Blk pointers. Quirk pinned by
     * the fixed-seed digests: a block that leaves and re-enters
     * residency before its old entry is popped keeps that old, live
     * position *and* gains a new one at the back, so the queue is not
     * strictly FIFO. Changing this is a protocol change.
     */
    ResidencyQueue<Blk> _residency;
};

} // namespace tokencmp

#endif // TOKENCMP_HIER_HIER_SHIM_HH
