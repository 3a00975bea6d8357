/**
 * @file
 * Token coherence L1 cache controller (instruction or data).
 *
 * Implements the correctness substrate (token counting, persistent
 * requests, response delay) and drives the performance policy's L1
 * half (Section 4) through the PerformancePolicy hook surface: on a
 * miss, send a transient request to the policy's destination set
 * (every peer L1 and the responsible L2 bank under the default
 * broadcast policies); on timeout, retry up to the policy's budget and
 * then escalate to a persistent request via the policy's activation
 * mechanism.
 */

#ifndef TOKENCMP_CORE_TOKEN_L1_HH
#define TOKENCMP_CORE_TOKEN_L1_HH

#include <cstdint>
#include <unordered_map>

#include "core/token_common.hh"
#include "cpu/sequencer.hh"
#include "mem/cache_array.hh"

namespace tokencmp {

/** L1 cache controller for the token protocol. */
class TokenL1 : public TokenController, public L1CacheIF
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t transientsIssued = 0;
        std::uint64_t retries = 0;
        std::uint64_t persistents = 0;
        std::uint64_t persistentReads = 0;
        std::uint64_t predictedPersistents = 0;
        std::uint64_t migratorySends = 0;
        std::uint64_t bounces = 0;
        std::uint64_t writebacks = 0;
    };

    /**
     * @param id         L1D or L1I machine id
     * @param size_bytes cache capacity (Table 3: 128 kB)
     * @param assoc      associativity (Table 3: 4)
     */
    TokenL1(SimContext &ctx, MachineID id, TokenGlobals &g,
            std::uint64_t size_bytes, unsigned assoc);

    // L1CacheIF
    void cpuRequest(const MemRequest &req) override;

    // Controller
    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Outstanding-miss count (0 or 1 per processor in practice). */
    std::size_t outstanding() const { return _txns.size(); }

    /** Direct line inspection for tests. */
    const TokenSt *peek(Addr addr) const;

  protected:
    void onPersistentTableChange(Addr addr) override;

    /**
     * Arbiter machine for a block under Arbiter activation. The flat
     * protocol arbitrates at the home memory controller; hierarchical
     * subclasses redirect to an intra-CMP arbiter (the local shim).
     */
    virtual MachineID
    arbiterOf(Addr addr) const
    {
        return ctx.topo.homeOf(addr);
    }

    using Array = CacheArray<TokenSt>;
    using Line = Array::Line;

    /** One outstanding miss. */
    struct Txn
    {
        MemRequest req;
        bool isWrite = false;
        unsigned attempts = 0;     //!< transient requests sent
        bool persistent = false;   //!< escalated to a persistent req
        bool activated = false;    //!< our table entry was inserted
        bool gatePending = false;  //!< waiting for marked-wave drain
        std::uint64_t gen = 0;     //!< timeout generation
        MsgSeq prSeq = 0;          //!< persistent sequence number
        Tick issued = 0;
    };

    unsigned myProc() const { return ctx.topo.procIdOf(_id); }
    bool isWriteOp(MemOp op) const
    {
        return op == MemOp::Store || op == MemOp::Atomic;
    }

    Line *allocLine(Addr addr);
    void evictLine(Line *line);
    void mergeResponse(Line *line, const Msg &m);

    void startMiss(const MemRequest &req);
    void issueTransient(Addr addr, Txn &txn);
    void armTimeout(Addr addr, Txn &txn);
    void onTimeout(Addr addr, std::uint64_t gen);
    void issuePersistent(Addr addr, Txn &txn);
    void activatePersistent(Addr addr, Txn &txn);
    void deactivatePersistent(Addr addr, Txn &txn);
    void tryComplete(Addr addr);
    void resumeGatedTxn(Addr addr);

    void onResponse(const Msg &m);
    void onTransientReq(const Msg &m);
    void forwardPersistentTokens(Addr addr);

    Tick timeoutThreshold(unsigned attempts) const;
    void observeMemLatency(Tick sample);

    Array _array;
    std::unordered_map<Addr, Txn> _txns;
    std::vector<MachineID> _destScratch;  //!< fan-out scratch buffer
    double _ewmaMemLat;  //!< EWMA of memory response latency (ticks)

};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_L1_HH
