// Continuous-time Markov chains — the modeling substrate the storage community uses for
// MTTF/MTTDL/MTBF (paper §2: "The storage community relies on Markov models of their system
// to quantify metrics like MTTF, MTBF, and MTTDL"). This is the toolkit's one chain engine;
// the fleet-lifecycle models (src/lifecycle) build their chains on it.
//
// States are dense integers. Transitions carry rates (per unit time). Provided solvers:
//   * TrySteadyState            pi Q = 0, sum(pi) = 1          (long-run state occupancy)
//   * TryMeanTimeToAbsorption   (-Q_TT) t = 1 on transient set (expected hitting time)
//   * TryTransientDistribution  e^{Qt} via uniformization      (probability at finite horizon)
//
// Each solve compresses the transition list into per-state rows once. Uniformization walks
// those rows; the two direct solves assemble a dense system from them and factor it with
// partial-pivoting LU.

#ifndef PROBCON_SRC_MARKOV_CTMC_H_
#define PROBCON_SRC_MARKOV_CTMC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"

namespace probcon {

using Vector = std::vector<double>;

// Options shared by the cancellable solvers. Serving contexts pass the request's
// CancelToken so an operator deadline can abandon a long solve at the next poll, and a
// progress cell wired to the daemon's serve.engine.ctmc_steps counter. The uniformization
// loop polls per Poisson term (each term is one sparse vector-matrix product); the direct
// solvers poll once before factoring, which is enough because lifecycle callers cap state
// counts so a single factorization stays sub-second. Results are bit-identical with or
// without a token — cancellation only decides whether the work runs, never what it computes.
struct CtmcSolveOptions {
  const CancelToken* cancel = nullptr;
  // Accumulates solver steps: one per Poisson term (uniformization) or per factored system
  // (direct solves). Purely observational.
  std::atomic<uint64_t>* progress = nullptr;
};

class Ctmc {
 public:
  explicit Ctmc(int state_count);

  int state_count() const { return state_count_; }

  // Adds a transition `from` -> `to` with the given rate (> 0). Accumulates if called twice
  // for the same pair.
  void AddTransition(int from, int to, double rate);

  // Long-run occupancy distribution. Fails (kFailedPrecondition) if the chain is reducible
  // in a way that makes the balance system singular (e.g. it has two absorbing states).
  Result<Vector> TrySteadyState(const CtmcSolveOptions& options) const;

  // Expected time to reach any state in `absorbing`, starting from `start`. States in
  // `absorbing` have their outgoing transitions ignored, and only the transient states
  // reachable from `start` enter the system. Fails (kFailedPrecondition) if absorption is
  // not certain from `start`, or if the solved time is not finite and positive (round-off
  // in an ill-conditioned system, where absorption is far rarer than the other moves).
  Result<double> TryMeanTimeToAbsorption(int start, const std::vector<int>& absorbing,
                                         const CtmcSolveOptions& options) const;

  // Distribution at time `t` starting from `initial`, via uniformization with truncation
  // error below 1e-12. The uniformization rate is 1.02 times the largest outflow of any
  // state. A chain with no transitions (or one whose states all have zero outgoing rate)
  // has a degenerate uniformization rate; the distribution is then the initial one and is
  // returned unchanged rather than dividing by zero. Horizons whose uniformization would
  // need more than ~1e9 Poisson terms are rejected (kFailedPrecondition) instead of looping
  // for hours.
  Result<Vector> TryTransientDistribution(const Vector& initial, double t,
                                          const CtmcSolveOptions& options) const;

 private:
  struct Transition {
    int from;
    int to;
    double rate;
  };

  // The generator's off-diagonal part in compressed-row form. Repeated transitions of one
  // pair are merged and each row's columns ascend. Merged rates and `exit_rate` (a row's
  // total outflow, the negated diagonal) are summed in the order the transitions were
  // added, which fixes every solver's answer to the last bit.
  struct Rows {
    std::vector<size_t> begin;  // Row s is entries [begin[s], begin[s + 1]).
    std::vector<int> column;
    std::vector<double> rate;
    std::vector<double> exit_rate;
  };

  Rows CompressedRows() const;

  // Marks the non-absorbing states reachable from `start` without passing through an
  // absorbing state.
  std::vector<bool> ReachableTransientStates(int start, const std::vector<bool>& is_absorbing,
                                             const Rows& rows) const;

  int state_count_;
  std::vector<Transition> transitions_;
};

}  // namespace probcon

#endif  // PROBCON_SRC_MARKOV_CTMC_H_
