#include "src/markov/ctmc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/json.h"

namespace probcon {
namespace {

// Row-major dense square system for the direct solves.
class DenseSystem {
 public:
  explicit DenseSystem(size_t n) : n_(n), data_(n * n, 0.0) {}

  size_t size() const { return n_; }
  double& At(size_t r, size_t c) { return data_[r * n_ + c]; }

 private:
  size_t n_;
  std::vector<double> data_;
};

// Solves a x = b by LU factorization with partial pivoting. Returns false if `a` is
// singular to working precision. Consumes `a`; on success `b` holds x.
//
// Elimination does only the updates that can change a nonzero value. A row whose
// multiplier is exactly zero, and a pivot-row entry that is exactly zero, would subtract
// +-0: that leaves every nonzero entry as it is and can at most flip the sign of a zero.
// No later step turns a zero's sign into a nonzero difference (pivots are nonzero and
// chosen by magnitude; products and sums with +-0 keep their nonzero operand exactly), so
// every nonzero entry of x is bit-identical to full dense elimination's, and only a zero
// entry's sign can differ.
bool SolveInPlace(DenseSystem& a, Vector& b) {
  const size_t n = a.size();
  CHECK_EQ(b.size(), n);
  std::vector<size_t> pivot_columns;  // Nonzero columns of the pivot row, right of col.
  pivot_columns.reserve(n);
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest magnitude entry in this column at or below the
    // diagonal.
    size_t pivot_row = col;
    double best = std::fabs(a.At(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(a.At(r, col));
      if (mag > best) {
        best = mag;
        pivot_row = r;
      }
    }
    if (best < 1e-300) {
      return false;
    }
    if (pivot_row != col) {
      for (size_t c = 0; c < n; ++c) {
        std::swap(a.At(col, c), a.At(pivot_row, c));
      }
      std::swap(b[col], b[pivot_row]);
    }
    const double pivot = a.At(col, col);
    pivot_columns.clear();
    for (size_t c = col + 1; c < n; ++c) {
      if (a.At(col, c) != 0.0) {
        pivot_columns.push_back(c);
      }
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a.At(r, col) / pivot;
      a.At(r, col) = factor;
      if (factor == 0.0) {
        continue;
      }
      for (const size_t c : pivot_columns) {
        a.At(r, c) -= factor * a.At(col, c);
      }
    }
  }
  // Forward substitution (L has implicit unit diagonal).
  for (size_t r = 1; r < n; ++r) {
    double acc = b[r];
    for (size_t c = 0; c < r; ++c) {
      acc -= a.At(r, c) * b[c];
    }
    b[r] = acc;
  }
  // Back substitution.
  for (size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (size_t c = r + 1; c < n; ++c) {
      acc -= a.At(r, c) * b[c];
    }
    b[r] = acc / a.At(r, r);
  }
  return true;
}

}  // namespace

Ctmc::Ctmc(int state_count) : state_count_(state_count) {
  CHECK_GT(state_count, 0);
}

void Ctmc::AddTransition(int from, int to, double rate) {
  CHECK(from >= 0 && from < state_count_);
  CHECK(to >= 0 && to < state_count_);
  CHECK_NE(from, to);
  CHECK_GT(rate, 0.0);
  transitions_.push_back({from, to, rate});
}

Ctmc::Rows Ctmc::CompressedRows() const {
  const size_t m = static_cast<size_t>(state_count_);
  Rows rows;
  rows.exit_rate.assign(m, 0.0);
  for (const Transition& t : transitions_) {
    rows.exit_rate[static_cast<size_t>(t.from)] += t.rate;
  }
  // A stable sort keeps repeated transitions of one pair in insertion order, so merging
  // them sums in that order.
  std::vector<Transition> sorted = transitions_;
  std::stable_sort(sorted.begin(), sorted.end(), [](const Transition& a, const Transition& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  rows.begin.assign(m + 1, 0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Transition& t = sorted[i];
    if (i > 0 && sorted[i - 1].from == t.from && sorted[i - 1].to == t.to) {
      rows.rate.back() += t.rate;
      continue;
    }
    rows.column.push_back(t.to);
    rows.rate.push_back(t.rate);
    ++rows.begin[static_cast<size_t>(t.from) + 1];
  }
  for (size_t s = 0; s < m; ++s) {
    rows.begin[s + 1] += rows.begin[s];
  }
  return rows;
}

Result<Vector> Ctmc::TrySteadyState(const CtmcSolveOptions& options) const {
  // Solve pi Q = 0 with normalization: replace the last equation of Q^T pi = 0 with the
  // all-ones constraint.
  if (IsCancelled(options.cancel)) {
    return CancelledError("steady-state solve cancelled");
  }
  const Rows rows = CompressedRows();
  const size_t m = static_cast<size_t>(state_count_);
  DenseSystem a(m);
  for (size_t s = 0; s < m; ++s) {
    a.At(s, s) -= rows.exit_rate[s];
    for (size_t k = rows.begin[s]; k < rows.begin[s + 1]; ++k) {
      a.At(static_cast<size_t>(rows.column[k]), s) = rows.rate[k];  // Q^T.
    }
  }
  // Overwrite the last balance equation with sum(pi) = 1.
  for (size_t c = 0; c < m; ++c) {
    a.At(m - 1, c) = 1.0;
  }
  Vector pi(m, 0.0);
  pi[m - 1] = 1.0;
  if (!SolveInPlace(a, pi)) {
    return Status(StatusCode::kFailedPrecondition,
                  "steady state undefined (reducible or absorbing chain)");
  }
  for (double& x : pi) {
    x = std::max(0.0, x);  // Clip tiny negative round-off.
  }
  if (options.progress != nullptr) {
    options.progress->fetch_add(1, std::memory_order_relaxed);
  }
  return pi;
}

std::vector<bool> Ctmc::ReachableTransientStates(int start,
                                                 const std::vector<bool>& is_absorbing,
                                                 const Rows& rows) const {
  // Depth-first search from `start` over non-absorbing states; unreachable transient states
  // (e.g. failure counts beyond an absorbing threshold) must not enter the linear system —
  // they often have no outgoing transitions and would make it singular.
  std::vector<bool> reachable(state_count_, false);
  std::vector<int> frontier;
  if (!is_absorbing[start]) {
    reachable[start] = true;
    frontier.push_back(start);
  }
  while (!frontier.empty()) {
    const size_t state = static_cast<size_t>(frontier.back());
    frontier.pop_back();
    for (size_t k = rows.begin[state]; k < rows.begin[state + 1]; ++k) {
      const int to = rows.column[k];
      if (!is_absorbing[to] && !reachable[to]) {
        reachable[to] = true;
        frontier.push_back(to);
      }
    }
  }
  return reachable;
}

Result<double> Ctmc::TryMeanTimeToAbsorption(int start, const std::vector<int>& absorbing,
                                             const CtmcSolveOptions& options) const {
  CHECK(start >= 0 && start < state_count_);
  if (IsCancelled(options.cancel)) {
    return CancelledError("mean-time-to-absorption solve cancelled");
  }
  std::vector<bool> is_absorbing(state_count_, false);
  for (const int s : absorbing) {
    CHECK(s >= 0 && s < state_count_);
    is_absorbing[s] = true;
  }
  if (is_absorbing[start]) {
    return 0.0;
  }
  // Index the transient states reachable from `start`.
  const Rows rows = CompressedRows();
  const std::vector<bool> reachable = ReachableTransientStates(start, is_absorbing, rows);
  std::vector<int> transient_index(state_count_, -1);
  std::vector<int> transient_states;
  for (int s = 0; s < state_count_; ++s) {
    if (reachable[s]) {
      transient_index[s] = static_cast<int>(transient_states.size());
      transient_states.push_back(s);
    }
  }
  // Solve (-Q_TT) t = 1.
  DenseSystem a(transient_states.size());
  for (size_t r = 0; r < transient_states.size(); ++r) {
    const size_t s = static_cast<size_t>(transient_states[r]);
    a.At(r, r) += rows.exit_rate[s];
    for (size_t k = rows.begin[s]; k < rows.begin[s + 1]; ++k) {
      const int to = rows.column[k];
      if (!is_absorbing[to]) {
        a.At(r, static_cast<size_t>(transient_index[to])) -= rows.rate[k];
      }
    }
  }
  Vector times(transient_states.size(), 1.0);
  if (!SolveInPlace(a, times)) {
    return Status(StatusCode::kFailedPrecondition,
                  "absorption is not certain from the start state");
  }
  if (options.progress != nullptr) {
    options.progress->fetch_add(1, std::memory_order_relaxed);
  }
  // A mean time is positive. Dense elimination on an ill-conditioned -Q_TT (absorption
  // many orders of magnitude rarer than the chain's other moves) can return a negative,
  // zero or non-finite one; refuse it rather than answer with it.
  const double time = times[static_cast<size_t>(transient_index[start])];
  if (!std::isfinite(time) || !(time > 0.0)) {
    return Status(StatusCode::kFailedPrecondition,
                  "mean time to absorption lost to round-off (ill-conditioned system, "
                  "solved value " + FormatDouble(time) + ")");
  }
  return time;
}

Result<Vector> Ctmc::TryTransientDistribution(const Vector& initial, double t,
                                              const CtmcSolveOptions& options) const {
  CHECK_EQ(initial.size(), static_cast<size_t>(state_count_));
  CHECK_GE(t, 0.0);
  const Rows rows = CompressedRows();
  double uniform_rate = 0.0;
  for (const double exit_rate : rows.exit_rate) {
    uniform_rate = std::max(uniform_rate, exit_rate);
  }
  // Degenerate uniformization rate: a chain with no transitions (or where every state's
  // outgoing rate is zero) never leaves its initial distribution. Return it unchanged —
  // the general path would divide by uniform_rate below.
  if (uniform_rate == 0.0 || t == 0.0) {
    return initial;
  }
  uniform_rate *= 1.02;  // Slack keeps the DTMC strictly substochastic on the diagonal.
  const double poisson_mean = uniform_rate * t;

  // Terms needed grows as Lambda*t + O(sqrt(Lambda*t)); beyond ~1e9 the solve would spin
  // for hours (and the old int cast of the bound overflowed). Refuse instead.
  constexpr double kMaxUniformizationTerms = 1e9;
  const double term_bound = poisson_mean + 12.0 * std::sqrt(poisson_mean) + 50.0;
  if (!(term_bound < kMaxUniformizationTerms)) {
    return Status(StatusCode::kFailedPrecondition,
                  "transient horizon too large for uniformization (rate * t over 1e9)");
  }

  // P = I + Q / uniform_rate: the diagonal 1 - exit_rate / uniform_rate, and each row's
  // rates scaled.
  const double inverse_rate = 1.0 / uniform_rate;
  const size_t m = static_cast<size_t>(state_count_);
  Vector stay(m);
  for (size_t s = 0; s < m; ++s) {
    stay[s] = 1.0 - rows.exit_rate[s] * inverse_rate;
  }
  Vector move(rows.rate.size());
  for (size_t k = 0; k < rows.rate.size(); ++k) {
    move[k] = rows.rate[k] * inverse_rate;
  }

  // distribution = sum_k Poisson(uniform_rate * t; k) * initial P^k.
  Vector current = initial;  // initial * P^k, built incrementally (row vector convention).
  Vector next(m, 0.0);
  Vector result(m, 0.0);
  // Poisson pmf computed iteratively in linear space with scaling guard.
  double log_pmf = -poisson_mean;  // log pmf at k = 0.
  double cumulative = 0.0;
  const int64_t max_terms = static_cast<int64_t>(term_bound);
  uint64_t unflushed_steps = 0;
  for (int64_t k = 0; k <= max_terms; ++k) {
    // Each term costs one vector-matrix product over the chain's nonzeros, so a per-term
    // poll is already far coarser than kCancellationPollStride relative to the work done.
    if (IsCancelled(options.cancel)) {
      if (options.progress != nullptr && unflushed_steps > 0) {
        options.progress->fetch_add(unflushed_steps, std::memory_order_relaxed);
      }
      return CancelledError("transient-distribution solve cancelled");
    }
    if (options.progress != nullptr &&
        ++unflushed_steps == kCancellationPollStride) {
      options.progress->fetch_add(unflushed_steps, std::memory_order_relaxed);
      unflushed_steps = 0;
    }
    const double pmf = std::exp(log_pmf);
    for (size_t s = 0; s < m; ++s) {
      result[s] += pmf * current[s];
    }
    cumulative += pmf;
    if (cumulative > 1.0 - 1e-12) {
      break;
    }
    // Advance: next = current * P. Rows are walked in ascending order and each row adds at
    // most once to an entry, so every entry of `next` sums its contributions in the same
    // order as a dense product would (which adds only extra zeros).
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t r = 0; r < m; ++r) {
      const double value = current[r];
      if (value == 0.0) {
        continue;
      }
      next[r] += value * stay[r];
      for (size_t e = rows.begin[r]; e < rows.begin[r + 1]; ++e) {
        next[static_cast<size_t>(rows.column[e])] += value * move[e];
      }
    }
    std::swap(current, next);
    log_pmf += std::log(poisson_mean) - std::log(static_cast<double>(k) + 1.0);
  }
  if (options.progress != nullptr && unflushed_steps > 0) {
    options.progress->fetch_add(unflushed_steps, std::memory_order_relaxed);
  }
  // Renormalize the truncation remainder.
  double total = 0.0;
  for (const double x : result) {
    total += x;
  }
  if (total > 0.0) {
    for (double& x : result) {
      x /= total;
    }
  }
  return result;
}

}  // namespace probcon
