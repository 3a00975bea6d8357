/**
 * @file
 * Per-line states for the two-level DirectoryCMP protocol.
 *
 * L1 caches run MESI (the O state effectively lives at the L2 bank:
 * data responses route through the L2, which keeps the on-chip owner
 * copy — the very indirection the paper's Section 8 calls out).
 * Each L2 bank line carries the chip's inter-CMP rights plus the
 * intra-CMP directory (sharer bits and owner pointer over the local
 * L1 slots).
 */

#ifndef TOKENCMP_DIRECTORY_DIR_STATE_HH
#define TOKENCMP_DIRECTORY_DIR_STATE_HH

#include <cstdint>

#include "mem/cache_array.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Stable L1 cache states (MESI; M/E imply sole on-chip copy). */
enum class L1State : std::uint8_t { I, S, E, M };

/** Chip-level rights recorded at the L2 bank (MOESI; E folded in M). */
enum class ChipState : std::uint8_t {
    I,  //!< chip holds nothing
    S,  //!< chip holds non-owner copies
    O,  //!< chip holds the owner copy; other chips may share
    M,  //!< chip holds the only copy (clean-exclusive or dirty)
};

/** Inter-CMP directory states at the home memory controller. */
enum class DirState : std::uint8_t {
    Uncached,  //!< memory owns the only copy
    Shared,    //!< one or more chips hold non-owner copies
    Owned,     //!< one chip owns; others may share
    Modified,  //!< one chip holds the only (possibly dirty) copy
};

/** L1 line state, widest fields first. */
struct DirL1St
{
    std::uint64_t value = 0;
    Tick holdUntil = 0;          //!< response-delay window
    L1State state = L1State::I;
    bool dirty = false;
    bool locallyStored = false;  //!< this cache performed the store
};

/** L2 bank line state: chip rights + intra-CMP directory. */
struct DirL2St
{
    std::uint64_t value = 0;
    ChipState chip = ChipState::I;
    bool l2DataValid = false;  //!< the L2 copy is the on-chip authority
    bool l2Dirty = false;      //!< L2 copy differs from memory
    bool storedHere = false;   //!< some local L1 stored (migratory)
    std::uint8_t sharers = 0;  //!< local L1 slots holding S copies
    std::int8_t ownerSlot = -1;//!< local L1 slot holding M/E, or -1
};

static_assert(sizeof(CacheLine<DirL1St>) <= 40,
              "directory L1 line outgrew its 40-byte layout");
static_assert(sizeof(CacheLine<DirL2St>) <= 32,
              "directory L2 line outgrew its 32-byte layout");

/** Printable names (for traces and tests). */
const char *l1StateName(L1State s);
const char *chipStateName(ChipState s);
const char *dirStateName(DirState s);

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_STATE_HH
