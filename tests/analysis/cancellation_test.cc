// Cooperative cancellation in the analysis engines: the Try* APIs return kCancelled
// promptly once a token fires, and an uncancelled run is bit-identical to the plain API —
// the serving layer's deadline story rests on both halves.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/analysis/placement.h"
#include "src/analysis/reliability.h"
#include "src/common/cancellation.h"

namespace probcon {
namespace {

TEST(Cancellation, PreFiredTokenCancelsExactEnumeration) {
  // n = 20 forces the 2^n exact path to do real work; a pre-cancelled token must stop it
  // at the first poll instead of enumerating a million configurations.
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(20, 0.01);
  const ConfigurationPredicate predicate(
      [](FailureConfiguration, int) { return true; });  // no count fast path => kExact

  CancelToken token;
  token.Cancel();
  const auto result =
      analyzer.TryEventProbability(predicate, AnalysisMethod::kExact, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, PreFiredTokenCancelsMonteCarlo) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.01);
  const auto config = RaftConfig::Standard(5);
  MonteCarloOptions options;
  options.trials = 1'000'000;
  CancelToken token;
  token.Cancel();
  options.cancel = &token;

  const auto result =
      analyzer.TryEstimateEventProbability(MakeRaftLivePredicate(config), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, MidFlightCancelStopsALongMonteCarloRun) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(7, 0.02);
  const auto config = RaftConfig::Standard(7);
  MonteCarloOptions options;
  options.trials = uint64_t{1} << 30;  // minutes of work if allowed to finish
  CancelToken token;
  options.cancel = &token;

  std::atomic<bool> finished{false};
  std::thread runner([&] {
    const auto result =
        analyzer.TryEstimateEventProbability(MakeRaftLivePredicate(config), options);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    finished.store(true);
  });
  token.Cancel();
  runner.join();
  EXPECT_TRUE(finished.load());
}

TEST(Cancellation, DeadlineStopsAPlacementSearchWithinASecond) {
  // 10 nodes on 5 racks is 5^10 assignments: minutes of work if allowed to finish. The
  // search polls before every chunk of assignments, so a token fired 50 ms in ends it
  // promptly.
  const std::vector<double> nodes(10, 0.01);
  const std::vector<double> racks = {0.001, 0.002, 0.003, 0.004, 0.005};
  CancelToken token;
  std::atomic<uint64_t> configurations{0};
  // NOLINTNEXTLINE(probcon-determinism): timing how promptly the cancelled search returns.
  const auto started = std::chrono::steady_clock::now();
  std::thread watchdog([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  const Result<PlacementResult> result =
      TryOptimizeRackPlacement(nodes, racks, &token, &configurations);
  // NOLINTNEXTLINE(probcon-determinism): timing how promptly the cancelled search returns.
  const auto elapsed = std::chrono::steady_clock::now() - started;
  watchdog.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_GT(configurations.load(), 0u);  // Work was counted before the deadline.
}

TEST(Cancellation, UncancelledPlacementSearchMatchesAndCountsItsWork) {
  const std::vector<double> nodes = {0.01, 0.03, 0.02, 0.05, 0.01};
  const std::vector<double> racks = {0.002, 0.004, 0.001};
  const PlacementResult plain = OptimizeRackPlacement(nodes, racks);
  CancelToken unfired;
  std::atomic<uint64_t> configurations{0};
  const Result<PlacementResult> tracked =
      TryOptimizeRackPlacement(nodes, racks, &unfired, &configurations);
  ASSERT_TRUE(tracked.ok());
  EXPECT_EQ(tracked->rack_of, plain.rack_of);
  EXPECT_EQ(tracked->safe_and_live.complement(), plain.safe_and_live.complement());
  EXPECT_EQ(configurations.load(), 243u * 32u);  // 3^5 assignments x 2^5 configurations.
}

TEST(Cancellation, UncancelledTryApisMatchThePlainApisBitForBit) {
  // The cancellation seam must not perturb results: with no token (or an unfired one) the
  // Try* variants perform exactly the same work in the same order.
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.03);
  const auto config = PbftConfig::Standard(5);
  const CountPredicate predicate = MakePbftSafeAndLivePredicate(config);

  const Probability plain = analyzer.EventProbability(predicate);
  const auto with_null_token = analyzer.TryEventProbability(predicate);
  ASSERT_TRUE(with_null_token.ok());
  EXPECT_EQ(with_null_token->complement(), plain.complement());

  CancelToken unfired;
  const auto with_live_token =
      analyzer.TryEventProbability(predicate, AnalysisMethod::kAuto, &unfired);
  ASSERT_TRUE(with_live_token.ok());
  EXPECT_EQ(with_live_token->complement(), plain.complement());

  MonteCarloOptions options;
  options.trials = 200'000;
  options.seed = 9;
  const ConfidenceInterval plain_estimate =
      analyzer.EstimateEventProbability(predicate, options);
  options.cancel = &unfired;
  const auto tracked_estimate = analyzer.TryEstimateEventProbability(predicate, options);
  ASSERT_TRUE(tracked_estimate.ok());
  EXPECT_EQ(tracked_estimate->point, plain_estimate.point);
  EXPECT_EQ(tracked_estimate->low, plain_estimate.low);
  EXPECT_EQ(tracked_estimate->high, plain_estimate.high);
}

}  // namespace
}  // namespace probcon
