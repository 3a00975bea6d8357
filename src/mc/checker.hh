/**
 * @file
 * Explicit-state model checker: breadth-first reachability over a flat
 * state store (state_store.hh), invariant checking, deadlock
 * detection, and a progress check (every obligation-carrying state can
 * reach an obligation-satisfied state) computed by backward
 * reachability over the explored graph.
 */

#ifndef TOKENCMP_MC_CHECKER_HH
#define TOKENCMP_MC_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mc/model.hh"

namespace tokencmp::mc {

/** Outcome of one model-checking run. */
struct CheckResult
{
    bool completed = false;      //!< explored the full state space
    bool safe = false;           //!< no invariant violation found
    bool deadlockFree = false;   //!< no non-quiescent dead states
    bool progress = false;       //!< obligations always satisfiable
    std::string violation;       //!< description of the first failure
    /** BFS path from an initial state to the failing state (the
     *  violating, dead or obligation-stuck one; empty when the state
     *  bound is exceeded), each state rendered by Model::describe. */
    std::vector<std::string> trace;

    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    unsigned diameter = 0;       //!< BFS depth
    double seconds = 0.0;
};

/** Breadth-first explicit-state checker. */
class Checker
{
  public:
    /**
     * @param max_states exploration bound (guards against blow-up);
     *        fatal() unless below 2^32 - 1, since state ids are 32-bit
     */
    explicit Checker(std::uint64_t max_states = 20'000'000);

    /** Exhaustively explore `model` and check all properties. */
    CheckResult run(const Model &model) const;

  private:
    std::uint64_t _maxStates;
};

} // namespace tokencmp::mc

#endif // TOKENCMP_MC_CHECKER_HH
