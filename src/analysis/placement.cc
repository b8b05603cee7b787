#include "src/analysis/placement.h"

#include <cstdint>

#include "src/common/check.h"
#include "src/exec/parallel.h"
#include "src/faultmodel/joint_model.h"

namespace probcon {
namespace {

// Decodes assignment index `index` (base-r digits, node 0 least significant — the same
// order the sequential odometer visited) into rack_of form.
void DecodeAssignment(uint64_t index, int racks, std::vector<int>* assignment) {
  for (int& rack : *assignment) {
    rack = static_cast<int>(index % static_cast<uint64_t>(racks));
    index /= static_cast<uint64_t>(racks);
  }
}

struct BestAssignment {
  Probability safe_and_live;
  uint64_t index = 0;
  bool valid = false;
};

// Assignments per chunk: the unit of parallel work and of cancellation polling.
constexpr uint64_t kPlacementChunk = 64;

}  // namespace

Probability EvaluateRackPlacement(const std::vector<double>& node_base_probabilities,
                                  const std::vector<double>& rack_probabilities,
                                  const std::vector<int>& rack_of) {
  const int n = static_cast<int>(node_base_probabilities.size());
  CHECK_EQ(rack_of.size(), node_base_probabilities.size());
  auto model = std::make_unique<FailureDomainModel>(node_base_probabilities, rack_of,
                                                    rack_probabilities);
  const ReliabilityAnalyzer analyzer(std::move(model));
  return AnalyzeRaft(RaftConfig::Standard(n), analyzer).safe_and_live;
}

Result<PlacementResult> TryOptimizeRackPlacement(
    const std::vector<double>& node_base_probabilities,
    const std::vector<double>& rack_probabilities, const CancelToken* cancel,
    std::atomic<uint64_t>* progress) {
  const int n = static_cast<int>(node_base_probabilities.size());
  const int racks = static_cast<int>(rack_probabilities.size());
  CHECK(n >= 1 && n <= 10) << "exhaustive placement search limited to n <= 10";
  CHECK(racks >= 1 && racks <= 5) << "exhaustive placement search limited to r <= 5";

  uint64_t total = 1;
  for (int i = 0; i < n; ++i) {
    total *= static_cast<uint64_t>(racks);
  }
  // Standard Raft is structurally safe, so an assignment's safe-and-live probability is
  // its liveness probability: the exact enumeration AnalyzeRaft runs (EvaluateRackPlacement
  // above), here on one model per chunk that each assignment reassigns in place.
  const RaftConfig config = RaftConfig::Standard(n);
  CHECK(RaftIsSafeStructurally(config));
  // Chunked argmax over the r^n assignment space. Per-chunk winners keep the earliest
  // index among equals (strict > to replace), and chunks merge in ascending order with a
  // strict < comparison, so ties resolve to the lowest assignment index — exactly the
  // assignment the sequential odometer found first.
  const BestAssignment best = ParallelReduce<BestAssignment>(
      0, total, kPlacementChunk, BestAssignment{},
      [&](uint64_t chunk_begin, uint64_t chunk_end, uint64_t /*chunk_index*/) {
        BestAssignment chunk_best;
        if (IsCancelled(cancel)) {
          return chunk_best;
        }
        std::vector<int> rack_of(static_cast<size_t>(n), 0);
        FailureDomainModel model(node_base_probabilities, rack_of, rack_probabilities);
        const CountPredicate live = MakeRaftLivePredicate(config);
        for (uint64_t index = chunk_begin; index < chunk_end; ++index) {
          DecodeAssignment(index, racks, &rack_of);
          model.Reassign(rack_of);
          const Result<Probability> candidate =
              TryExactEventProbability(model, live, nullptr, progress);
          CHECK(candidate.ok()) << candidate.status().ToString();
          if (!chunk_best.valid || chunk_best.safe_and_live < *candidate) {
            chunk_best.safe_and_live = *candidate;
            chunk_best.index = index;
            chunk_best.valid = true;
          }
        }
        return chunk_best;
      },
      [](BestAssignment& acc, BestAssignment&& partial) {
        if (partial.valid && (!acc.valid || acc.safe_and_live < partial.safe_and_live)) {
          acc = partial;
        }
      });
  if (IsCancelled(cancel)) {
    return CancelledError("placement search cancelled");
  }
  CHECK(best.valid);
  PlacementResult result;
  result.rack_of.resize(static_cast<size_t>(n));
  DecodeAssignment(best.index, racks, &result.rack_of);
  result.safe_and_live = best.safe_and_live;
  return result;
}

PlacementResult OptimizeRackPlacement(const std::vector<double>& node_base_probabilities,
                                      const std::vector<double>& rack_probabilities) {
  Result<PlacementResult> result =
      TryOptimizeRackPlacement(node_base_probabilities, rack_probabilities);
  CHECK(result.ok()) << result.status().ToString();
  return *result;
}

}  // namespace probcon
