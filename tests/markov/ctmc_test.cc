#include "src/markov/ctmc.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"
#include "src/common/rng.h"

namespace probcon {
namespace {

// Two-state repairable machine: up (0) <-> down (1), failure rate lambda, repair rate mu.
Ctmc TwoStateMachine(double lambda, double mu) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, lambda);
  chain.AddTransition(1, 0, mu);
  return chain;
}

Vector TransientAt(const Ctmc& chain, const Vector& initial, double t) {
  auto result = chain.TryTransientDistribution(initial, t, {});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : Vector(initial.size(), -1.0);
}

TEST(CtmcTest, RepeatedTransitionsActAsOneSummedTransition) {
  // 0 -> 1 added as 0.25 then 0.5 (around another transition) must act as one 0.75 rate in
  // every solver. The rates sum exactly, so the answers must match bit for bit.
  Ctmc split(3);
  split.AddTransition(0, 1, 0.25);
  split.AddTransition(0, 2, 1.0);
  split.AddTransition(0, 1, 0.5);
  split.AddTransition(1, 0, 2.0);
  split.AddTransition(2, 0, 3.0);
  Ctmc merged(3);
  merged.AddTransition(0, 1, 0.75);
  merged.AddTransition(0, 2, 1.0);
  merged.AddTransition(1, 0, 2.0);
  merged.AddTransition(2, 0, 3.0);

  const auto split_pi = split.TrySteadyState({});
  const auto merged_pi = merged.TrySteadyState({});
  ASSERT_TRUE(split_pi.ok());
  ASSERT_TRUE(merged_pi.ok());
  EXPECT_EQ(*split_pi, *merged_pi);

  const auto split_mtta = split.TryMeanTimeToAbsorption(0, {2}, {});
  const auto merged_mtta = merged.TryMeanTimeToAbsorption(0, {2}, {});
  ASSERT_TRUE(split_mtta.ok());
  ASSERT_TRUE(merged_mtta.ok());
  EXPECT_EQ(*split_mtta, *merged_mtta);

  EXPECT_EQ(TransientAt(split, {1.0, 0.0, 0.0}, 3.0), TransientAt(merged, {1.0, 0.0, 0.0}, 3.0));
}

TEST(CtmcTest, UnreachableStateLeavesAnswersUnchanged) {
  // State 3 leads into the chain but nothing leads to it. Its outflow (0.5) is below the
  // chain's largest (3.0), so the uniformization rate is unchanged too, and every answer
  // must match the chain without it bit for bit.
  Ctmc base(3);
  Ctmc extended(4);
  for (Ctmc* chain : {&base, &extended}) {
    chain->AddTransition(0, 1, 1.0);
    chain->AddTransition(1, 0, 3.0);
    chain->AddTransition(1, 2, 0.5);
  }
  extended.AddTransition(3, 0, 0.5);

  const auto base_mtta = base.TryMeanTimeToAbsorption(0, {2}, {});
  const auto extended_mtta = extended.TryMeanTimeToAbsorption(0, {2}, {});
  ASSERT_TRUE(base_mtta.ok());
  ASSERT_TRUE(extended_mtta.ok());
  EXPECT_EQ(*base_mtta, *extended_mtta);

  const Vector base_at = TransientAt(base, {1.0, 0.0, 0.0}, 4.0);
  const Vector extended_at = TransientAt(extended, {1.0, 0.0, 0.0, 0.0}, 4.0);
  ASSERT_EQ(extended_at.size(), 4u);
  EXPECT_EQ(Vector(extended_at.begin(), extended_at.begin() + 3), base_at);
  EXPECT_EQ(extended_at[3], 0.0);
}

TEST(CtmcTest, TwoStateSteadyState) {
  // pi_up = mu / (mu + lambda).
  const Ctmc chain = TwoStateMachine(0.1, 2.0);
  const auto pi = chain.TrySteadyState({});
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR((*pi)[0], 2.0 / 2.1, 1e-10);
  EXPECT_NEAR((*pi)[1], 0.1 / 2.1, 1e-10);
}

TEST(CtmcTest, MM1QueueSteadyStateIsGeometric) {
  // Truncated M/M/1 with arrival 1, service 2: pi_k ~ (1/2)^k.
  constexpr int kStates = 12;
  Ctmc chain(kStates);
  for (int k = 0; k < kStates - 1; ++k) {
    chain.AddTransition(k, k + 1, 1.0);
    chain.AddTransition(k + 1, k, 2.0);
  }
  const auto pi = chain.TrySteadyState({});
  ASSERT_TRUE(pi.ok());
  for (int k = 1; k < kStates; ++k) {
    EXPECT_NEAR((*pi)[k] / (*pi)[k - 1], 0.5, 1e-9) << k;
  }
}

TEST(CtmcTest, SteadyStateOfAbsorbingChainConcentratesThere) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, 1.0);  // 1 is absorbing.
  const auto pi = chain.TrySteadyState({});
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR((*pi)[0], 0.0, 1e-12);
  EXPECT_NEAR((*pi)[1], 1.0, 1e-12);
}

TEST(CtmcTest, SteadyStateFailsWithTwoAbsorbingComponents) {
  // Two disconnected absorbing sinks: the limit depends on the start state, so the balance
  // system is singular.
  Ctmc chain(4);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(2, 3, 1.0);
  const auto pi = chain.TrySteadyState({});
  ASSERT_FALSE(pi.ok());
  EXPECT_EQ(pi.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CtmcTest, MeanTimeToAbsorptionExponential) {
  // Single transition 0 -> 1 at rate lambda: MTTA = 1/lambda.
  Ctmc chain(2);
  chain.AddTransition(0, 1, 0.25);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {1}, {});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, 4.0, 1e-10);
}

TEST(CtmcTest, MeanTimeToAbsorptionSeries) {
  // 0 -> 1 -> 2 with rates 1 and 2: MTTA = 1 + 0.5.
  Ctmc chain(3);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(1, 2, 2.0);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {2}, {});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, 1.5, 1e-10);
}

TEST(CtmcTest, MeanTimeToAbsorptionWithRepairClosedForm) {
  // Birth-death on {0,1,2}, absorb at 2: failure rate l, repair m from 1.
  // MTTA from 0 = (2l + m) / l^2 for this chain with both failure rates = l.
  const double l = 0.5;
  const double m = 3.0;
  Ctmc chain(3);
  chain.AddTransition(0, 1, l);
  chain.AddTransition(1, 0, m);
  chain.AddTransition(1, 2, l);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {2}, {});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, (2 * l + m) / (l * l), 1e-9);
}

TEST(CtmcTest, MttaFromAbsorbingStateIsZero) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, 1.0);
  const auto mtta = chain.TryMeanTimeToAbsorption(1, {1}, {});
  ASSERT_TRUE(mtta.ok());
  EXPECT_DOUBLE_EQ(*mtta, 0.0);
}

TEST(CtmcTest, AbsorptionProbabilitiesCompete) {
  // 0 -> 1 at rate 3, 0 -> 2 at rate 1: absorbed at 1 w.p. 3/4. By t = 100 the mass left in
  // state 0 is e^-400, so the transient distribution is the absorption law.
  Ctmc chain(3);
  chain.AddTransition(0, 1, 3.0);
  chain.AddTransition(0, 2, 1.0);
  const Vector late = TransientAt(chain, {1.0, 0.0, 0.0}, 100.0);
  EXPECT_NEAR(late[1], 0.75, 1e-10);
  EXPECT_NEAR(late[2], 0.25, 1e-10);
}

TEST(CtmcTest, AbsorptionProbabilitiesSumToOne) {
  // Absorbing 2 and 3 compete. First-step analysis: h0 = (0.3 + h1) / 1.3 and
  // h1 = 5 h0 / 5.7 give P(absorbed at 2 from 0) = 1.71 / 2.41. The transient block decays
  // at ~0.36 per unit time, so by t = 200 the chain has been absorbed.
  Ctmc chain(4);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(1, 0, 5.0);
  chain.AddTransition(0, 2, 0.3);
  chain.AddTransition(1, 3, 0.7);
  const Vector late = TransientAt(chain, {1.0, 0.0, 0.0, 0.0}, 200.0);
  EXPECT_NEAR(late[2] + late[3], 1.0, 1e-10);
  EXPECT_NEAR(late[2], 1.71 / 2.41, 1e-10);
}

TEST(CtmcTest, TransientDistributionTwoStateClosedForm) {
  // P(up at t) = mu/(l+m) + l/(l+m) e^{-(l+m)t} starting from up.
  const double l = 0.4;
  const double m = 1.6;
  const Ctmc chain = TwoStateMachine(l, m);
  const Vector initial = {1.0, 0.0};
  for (const double t : {0.1, 0.5, 1.0, 3.0}) {
    const Vector at_t = TransientAt(chain, initial, t);
    const double expected = m / (l + m) + l / (l + m) * std::exp(-(l + m) * t);
    EXPECT_NEAR(at_t[0], expected, 1e-9) << t;
    EXPECT_NEAR(at_t[0] + at_t[1], 1.0, 1e-9);
  }
}

TEST(CtmcTest, TransientAtZeroIsInitial) {
  const Ctmc chain = TwoStateMachine(1.0, 1.0);
  const Vector initial = {0.3, 0.7};
  const Vector at_zero = TransientAt(chain, initial, 0.0);
  EXPECT_DOUBLE_EQ(at_zero[0], 0.3);
  EXPECT_DOUBLE_EQ(at_zero[1], 0.7);
}

TEST(CtmcTest, TransientConvergesToSteadyState) {
  const Ctmc chain = TwoStateMachine(0.5, 1.5);
  const Vector initial = {1.0, 0.0};
  const Vector late = TransientAt(chain, initial, 100.0);
  const auto pi = chain.TrySteadyState({});
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR(late[0], (*pi)[0], 1e-8);
  EXPECT_NEAR(late[1], (*pi)[1], 1e-8);
}

TEST(CtmcTest, TransientWithNoTransitionsReturnsInitial) {
  // Degenerate uniformization: a chain with no transitions has Lambda = 0, so there is
  // nothing to exponentiate — the distribution must pass through unchanged for ANY t, not
  // divide by zero. Regression for the uniformization rate guard.
  Ctmc chain(3);
  const Vector initial = {0.2, 0.5, 0.3};
  for (const double t : {0.0, 1.0, 1e6}) {
    const Vector at_t = TransientAt(chain, initial, t);
    EXPECT_DOUBLE_EQ(at_t[0], 0.2) << t;
    EXPECT_DOUBLE_EQ(at_t[1], 0.5) << t;
    EXPECT_DOUBLE_EQ(at_t[2], 0.3) << t;
  }
}

TEST(CtmcTest, TransientAllStatesAbsorbingIsAlsoDegenerate) {
  // Absorbing-only chains (every state retained, no outgoing rates) hit the same Lambda = 0
  // path even when states exist that COULD have transitions.
  Ctmc chain(2);
  const Vector initial = {1.0, 0.0};
  const Vector at_t = TransientAt(chain, initial, 42.0);
  EXPECT_DOUBLE_EQ(at_t[0], 1.0);
  EXPECT_DOUBLE_EQ(at_t[1], 0.0);
}

TEST(CtmcTest, TryTransientRejectsAstronomicalHorizons) {
  // rate * t over the term cap must surface as FAILED_PRECONDITION, not an int overflow in
  // the Poisson term loop.
  const Ctmc chain = TwoStateMachine(1.0, 1.0);
  const auto result = chain.TryTransientDistribution({1.0, 0.0}, 1e12, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CtmcTest, TrySolversHonorCancellation) {
  const Ctmc chain = TwoStateMachine(0.5, 1.5);
  CancelToken token;
  token.Cancel();
  const CtmcSolveOptions options{.cancel = &token};
  EXPECT_EQ(chain.TrySteadyState(options).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(chain.TryMeanTimeToAbsorption(0, {1}, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(chain.TryTransientDistribution({1.0, 0.0}, 10.0, options).status().code(),
            StatusCode::kCancelled);
}

TEST(CtmcTest, TrySolversMatchUncancelledBaseline) {
  // An unfired token and a progress cell change nothing in the answers.
  const Ctmc chain = TwoStateMachine(0.4, 1.6);
  CancelToken token;
  std::atomic<uint64_t> steps{0};
  const CtmcSolveOptions watched{.cancel = &token, .progress = &steps};
  const auto baseline = chain.TrySteadyState({});
  const auto tried = chain.TrySteadyState(watched);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(tried.ok());
  EXPECT_EQ(*tried, *baseline);
  const auto direct = chain.TryTransientDistribution({1.0, 0.0}, 2.5, {});
  const auto tried_transient = chain.TryTransientDistribution({1.0, 0.0}, 2.5, watched);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(tried_transient.ok());
  EXPECT_EQ(*tried_transient, *direct);
}

TEST(CtmcTest, ProgressCellCountsUniformizationTerms) {
  std::atomic<uint64_t> steps{0};
  const Ctmc chain = TwoStateMachine(2.0, 2.0);
  const auto result = chain.TryTransientDistribution({1.0, 0.0}, 50.0, {.progress = &steps});
  ASSERT_TRUE(result.ok());
  // Lambda * t = 50 * ~4.08: uniformization needs at least that many Poisson terms.
  EXPECT_GT(steps.load(), 100u);
}

TEST(CtmcTest, AccumulatedParallelTransitions) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, 0.5);
  chain.AddTransition(0, 1, 0.5);  // Accumulates to rate 1.
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {1}, {});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, 1.0, 1e-10);
}

// -----------------------------------------------------------------------------------------
// The direct solves factor a dense system with partial-pivoting LU; these chains pin down
// its cases.

TEST(LuTest, SolvesHandComputedSystem) {
  // Cycle 0 -> 1 -> 2 -> 0 at rates 1, 2, 4: occupancy is proportional to 1 / rate, so
  // pi = (4, 2, 1) / 7.
  Ctmc chain(3);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(1, 2, 2.0);
  chain.AddTransition(2, 0, 4.0);
  const auto pi = chain.TrySteadyState({});
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR((*pi)[0], 4.0 / 7.0, 1e-12);
  EXPECT_NEAR((*pi)[1], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR((*pi)[2], 1.0 / 7.0, 1e-12);
}

TEST(LuTest, RequiresPivoting) {
  // 0 -> 1 at 1; 1 -> 0 at 10 and 1 -> 2 at 1, with 2 absorbing. The system
  // [[1, -1], [-10, 11]] t = 1 has its largest first-column entry below the diagonal, so
  // the factorization swaps rows. First-step analysis: t0 = 1 + t1, t1 = (1 + 10 t0) / 11,
  // so t0 = 12.
  Ctmc chain(3);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(1, 0, 10.0);
  chain.AddTransition(1, 2, 1.0);
  const auto from_zero = chain.TryMeanTimeToAbsorption(0, {2}, {});
  const auto from_one = chain.TryMeanTimeToAbsorption(1, {2}, {});
  ASSERT_TRUE(from_zero.ok());
  ASSERT_TRUE(from_one.ok());
  EXPECT_NEAR(*from_zero, 12.0, 1e-12);
  EXPECT_NEAR(*from_one, 11.0, 1e-12);
}

TEST(LuTest, DetectsSingular) {
  // 0 and 1 only trade places; the absorbing state 2 cannot be reached from them, so the
  // hitting-time system is singular and absorption is reported as not certain.
  Ctmc chain(3);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(1, 0, 2.0);
  chain.AddTransition(2, 0, 1.0);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {2}, {});
  ASSERT_FALSE(mtta.ok());
  EXPECT_EQ(mtta.status().code(), StatusCode::kFailedPrecondition);
}

class RandomSystemTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemTest, SolveThenMultiplyRoundTrips) {
  // A random chain on n transient states plus an absorbing state n, each transient state
  // leaking into it. Solving for every start, then substituting back, must satisfy the
  // first-step equations exit_s t_s - sum_j rate_sj t_j = 1; and with a return transition
  // the steady state must satisfy pi Q = 0.
  const int n = GetParam();
  Rng rng(1000 + n);
  struct Edge {
    int from;
    int to;
    double rate;
  };
  std::vector<Edge> edges;
  for (int s = 0; s < n; ++s) {
    edges.push_back({s, n, 0.05 + rng.NextDouble()});
    for (int k = 0; k < 3; ++k) {
      const int to = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
      if (to != s) {
        edges.push_back({s, to, 0.05 + rng.NextDouble()});
      }
    }
  }
  Ctmc absorbing_chain(n + 1);
  for (const Edge& e : edges) {
    absorbing_chain.AddTransition(e.from, e.to, e.rate);
  }
  std::vector<double> times(static_cast<size_t>(n) + 1, 0.0);
  for (int s = 0; s < n; ++s) {
    const auto mtta = absorbing_chain.TryMeanTimeToAbsorption(s, {n}, {});
    ASSERT_TRUE(mtta.ok());
    times[s] = *mtta;
  }
  std::vector<double> residual(static_cast<size_t>(n), -1.0);
  for (const Edge& e : edges) {
    residual[e.from] += e.rate * (times[e.from] - times[e.to]);
  }
  for (int s = 0; s < n; ++s) {
    EXPECT_NEAR(residual[s], 0.0, 1e-9 * times[s]) << "state " << s;
  }

  edges.push_back({n, 0, 1.0});
  Ctmc recurrent_chain(n + 1);
  for (const Edge& e : edges) {
    recurrent_chain.AddTransition(e.from, e.to, e.rate);
  }
  const auto pi = recurrent_chain.TrySteadyState({});
  ASSERT_TRUE(pi.ok());
  std::vector<double> net_flow(static_cast<size_t>(n) + 1, 0.0);
  double total = 0.0;
  for (const Edge& e : edges) {
    net_flow[e.from] -= (*pi)[e.from] * e.rate;
    net_flow[e.to] += (*pi)[e.from] * e.rate;
  }
  for (int s = 0; s <= n; ++s) {
    EXPECT_NEAR(net_flow[s], 0.0, 1e-12) << "state " << s;
    total += (*pi)[s];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSystemTest, ::testing::Values(1, 2, 5, 20, 50));

}  // namespace
}  // namespace probcon
