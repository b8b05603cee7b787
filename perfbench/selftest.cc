// Self-tests of the harness itself: the percentile picker, the determinism of every
// seeded input, and (full suite only) the engine_cold cost bands.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/chaos/plan_generator.h"
#include "src/common/json.h"
#include "src/exec/thread_pool.h"
#include "src/serve/engine.h"
#include "src/serve/spec.h"

namespace perfbench {
namespace {

namespace serve = probcon::serve;

std::string Serialized(const Query& query) {
  return serve::RequestEnvelope::Serialize(0, query.kind, query.params, 0.0, false);
}

// Every seeded input of one seed, concatenated: warm set, the first cold requests of
// both clients, and the first chaos plans of both protocols.
std::string AllInputs(uint64_t seed) {
  std::string text;
  for (const Query& query : WarmWorkingSet(seed)) text += Serialized(query);
  for (int client = 0; client < kEngineColdClients; ++client) {
    for (uint64_t index = 0; index < 64; ++index) {
      ColdShape shape;
      text += Serialized(ColdRequest(seed, client, index, &shape));
    }
  }
  for (const bool pbft : {false, true}) {
    const probcon::ChaosPlanGenerator generator(ChaosGeneratorOptions(pbft));
    for (uint64_t batch = 0; batch < 4; ++batch) {
      for (int i = 0; i < kChaosPlansPerCampaign; ++i) {
        text += generator.Generate(CampaignSeed(seed, batch, pbft), i).ToJson();
      }
    }
  }
  return text;
}

void Expect(bool condition, const std::string& what, std::vector<std::string>* errors) {
  if (!condition) errors->push_back(what);
}

}  // namespace

bool RunQuickSelfTests(std::vector<std::string>* errors) {
  const size_t before = errors->size();

  // Percentile picker: nearest rank, and never a tail with fewer than ten samples beyond.
  std::vector<double> sorted(2000);
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = static_cast<double>(i + 1);
  double value = 0.0;
  Expect(PickPercentile(sorted, 0.5, kMinTailSamples, &value) && value == 1000.0,
         "p50 of 1..2000 must be 1000", errors);
  Expect(PickPercentile(sorted, 0.99, kMinTailSamples, &value) && value == 1980.0 &&
             sorted.size() - static_cast<size_t>(value) >= kMinTailSamples,
         "p99 of 1..2000 must be 1980 with 20 samples beyond", errors);
  for (const size_t n : {1000u, 1009u, 1010u, 1011u, 5000u}) {
    const std::vector<double> sample(sorted.begin(), sorted.begin() + std::min<size_t>(n, 2000));
    const bool picked = PickPercentile(sample, 0.99, kMinTailSamples, &value);
    const size_t beyond = picked ? sample.size() - static_cast<size_t>(value) : 0;
    Expect(!picked || beyond >= kMinTailSamples,
           "p99 of " + std::to_string(sample.size()) + " samples left " +
               std::to_string(beyond) + " beyond it",
           errors);
  }
  Expect(!PickPercentile(std::vector<double>(500, 1.0), 0.99, kMinTailSamples, &value),
         "p99 of 500 samples must be refused", errors);

  // Determinism: the same seed gives byte-identical inputs, another seed different ones.
  const std::string first = AllInputs(7);
  Expect(first == AllInputs(7), "seed 7 produced two different input sets", errors);
  Expect(first != AllInputs(8), "seeds 7 and 8 produced the same inputs", errors);
  return errors->size() == before;
}

bool RunFullSelfTests(std::vector<std::string>* errors) {
  const size_t before = errors->size();
  RunQuickSelfTests(errors);

  // engine_cold cost bands, on the workload's own pool size. Each shape's work count is
  // fixed (configurations, trials, states) and its median time stays within 2x of every
  // other shape's, so latency percentiles never straddle two cost populations.
  probcon::ScopedThreadPool pool(kEngineColdPool);
  constexpr int kRounds = 15;
  std::vector<std::vector<double>> times(kColdShapeCount);
  std::vector<std::vector<double>> steps(kColdShapeCount);
  for (int round = 0; round < kRounds; ++round) {
    for (int s = 0; s < kColdShapeCount; ++s) {
      const ColdShape shape = static_cast<ColdShape>(s);
      const Query query = ColdRequestOfShape(11, round, shape);
      auto kind = serve::RequestKindFromName(query.kind);
      auto request = serve::ServeRequest::FromParams(*kind, query.params);
      if (!request.ok()) {
        errors->push_back(std::string(ColdShapeName(shape)) + ": " + request.status().ToString());
        return false;
      }
      std::atomic<uint64_t> mc{0}, configs{0}, ctmc{0};
      serve::EngineProgress progress{&mc, &configs, &ctmc};
      const auto start = Clock::now();
      auto result = serve::ExecuteRequest(*request, nullptr, progress);
      times[s].push_back(1e3 * SecondsBetween(start, Clock::now()));
      Expect(result.ok(), std::string(ColdShapeName(shape)) + " failed", errors);
      steps[s].push_back(static_cast<double>(mc + configs + ctmc));
    }
  }
  std::vector<double> medians;
  for (int s = 0; s < kColdShapeCount; ++s) {
    medians.push_back(Median(times[s]));
    const auto [lo, hi] = std::minmax_element(steps[s].begin(), steps[s].end());
    std::printf("cost band %-12s median %.3f ms, work %.0f..%.0f\n",
                ColdShapeName(static_cast<ColdShape>(s)), medians.back(), *lo, *hi);
    Expect(*hi <= 1.1 * *lo, std::string(ColdShapeName(static_cast<ColdShape>(s))) +
                                 " work count varies by more than 10% across requests",
           errors);
  }
  const auto [fastest, slowest] = std::minmax_element(medians.begin(), medians.end());
  Expect(*slowest <= 2.0 * *fastest, "engine_cold shapes' median costs differ by more than 2x",
         errors);
  return errors->size() == before;
}

}  // namespace perfbench
