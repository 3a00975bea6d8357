/**
 * @file
 * Functional backing store: one 64-bit value per cache block.
 *
 * The simulator carries a functional value with every block so that the
 * workloads are *semantically* executed (locks really serialize,
 * barriers really gate) and correctness failures in a protocol surface
 * as wrong values, not just wrong timing. Modeling 8 of the 64 bytes is
 * enough because workloads address at block granularity.
 */

#ifndef TOKENCMP_MEM_BACKING_STORE_HH
#define TOKENCMP_MEM_BACKING_STORE_HH

#include <cstdint>
#include <unordered_map>

#include "sim/optional_mutex.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Sparse functional memory image, shared by all memory controllers. */
class BackingStore
{
  public:
    /**
     * Guard the map with a mutex so home memory controllers on
     * concurrent shard domains may touch it. Each block has exactly
     * one home, so per-block values are still updated by a single
     * domain; the lock only protects the map's structure (rehashing
     * on insert). Serial runs leave this off and pay nothing.
     */
    void setThreadSafe(bool on) { _mu.enable(on); }

    /** Current memory value of a block (0 if never written). */
    std::uint64_t
    read(Addr addr) const
    {
        auto lock = _mu.lock();
        auto it = _mem.find(blockAlign(addr));
        return it == _mem.end() ? 0 : it->second;
    }

    /** Update the memory image of a block. */
    void
    write(Addr addr, std::uint64_t v)
    {
        auto lock = _mu.lock();
        _mem[blockAlign(addr)] = v;
    }

    /** Number of blocks ever written. */
    std::size_t
    footprint() const
    {
        auto lock = _mu.lock();
        return _mem.size();
    }

  private:
    /** Engaged only after setThreadSafe(true). */
    OptionalMutex _mu;
    std::unordered_map<Addr, std::uint64_t> _mem;
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_BACKING_STORE_HH
