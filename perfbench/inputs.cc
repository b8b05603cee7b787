// Seeded input generators. Every input is a pure function of (seed, stream), drawn from
// probcon::Rng, so the same seed sends byte-identical payloads on every host.

#include <set>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/serve/spec.h"

namespace perfbench {
namespace {

using probcon::DeriveStreamSeed;
using probcon::Json;
using probcon::Rng;

// Stream ids keep the generators' random streams apart for one seed.
constexpr uint64_t kWarmStream = 0x5741524dull;  // "WARM"
constexpr uint64_t kColdStream = 0x434f4c44ull;  // "COLD"
constexpr uint64_t kChaosStream = 0x43484153ull; // "CHAS"

double Uniform(Rng& rng, double lo, double hi) { return lo + (hi - lo) * rng.NextDouble(); }

// Probabilities on a coarse grid keep dashboard queries looking like what people type.
double GridProbability(Rng& rng) {
  return 0.001 * static_cast<double>(rng.NextInRange(1, 80));
}

Json UniformFault(int n, double p) {
  Json fault = Json::Object();
  fault.Set("n", Json::Number(n));
  fault.Set("p", Json::Number(p));
  return fault;
}

Json ProbabilityList(Rng& rng, int count, double lo, double hi) {
  Json list = Json::Array();
  for (int i = 0; i < count; ++i) list.Append(Json::Number(Uniform(rng, lo, hi)));
  return list;
}

Json Fleet(Rng& rng, int classes, int per_class, double rate_lo, double rate_hi,
           double repair_lo, double repair_hi, int repair_servers) {
  Json list = Json::Array();
  for (int c = 0; c < classes; ++c) {
    Json item = Json::Object();
    item.Set("count", Json::Number(per_class));
    item.Set("failure_rate", Json::Number(Uniform(rng, rate_lo, rate_hi)));
    list.Append(std::move(item));
  }
  Json fleet = Json::Object();
  fleet.Set("classes", std::move(list));
  fleet.Set("repair_rate", Json::Number(Uniform(rng, repair_lo, repair_hi)));
  fleet.Set("repair_servers", Json::Number(repair_servers));
  return fleet;
}

// Query `index` of the working set; the kind cycles so every seed has the same mix.
Query WarmQuery(Rng& rng, size_t index) {
  Json params = Json::Object();
  switch (index % 5) {
    case 0: {
      const int n = static_cast<int>(rng.NextInRange(4, 10));
      params.Set("fault", UniformFault(n, GridProbability(rng)));
      return {"table1", std::move(params)};
    }
    case 1: {
      const int n = static_cast<int>(rng.NextInRange(3, 11));
      params.Set("fault", UniformFault(n, GridProbability(rng)));
      return {"table2", std::move(params)};
    }
    case 2: {
      // Small per-node probabilities keep every target attainable.
      const int n = static_cast<int>(rng.NextInRange(3, 9));
      params.Set("protocol", Json::String("raft"));
      params.Set("fault", UniformFault(n, 0.0005 * static_cast<double>(rng.NextInRange(1, 20))));
      params.Set("target_live", Json::Number(0.99));
      return {"quorum_size", std::move(params)};
    }
    case 3: {
      const bool pbft = rng.NextBernoulli(0.5);
      const int n = pbft ? static_cast<int>(rng.NextInRange(4, 10))
                         : static_cast<int>(rng.NextInRange(3, 9));
      params.Set("protocol", Json::String(pbft ? "pbft" : "raft"));
      params.Set("fault", UniformFault(n, GridProbability(rng)));
      params.Set("window_hours", Json::Number(static_cast<int>(rng.NextInRange(1, 48))));
      params.Set("mttr_hours", Json::Number(static_cast<int>(rng.NextInRange(1, 8))));
      return {"end_to_end", std::move(params)};
    }
    default: {
      params.Set("protocol", Json::String("raft"));
      const int count = static_cast<int>(rng.NextInRange(3, 9));
      params.Set("fleet", Fleet(rng, 1, count, 1e-4, 1e-2, 0.05, 1.0, 1));
      return {"availability", std::move(params)};
    }
  }
}

}  // namespace

std::vector<Query> WarmWorkingSet(uint64_t seed) {
  Rng rng(DeriveStreamSeed(seed, kWarmStream));
  std::vector<Query> queries;
  std::set<std::string> keys;
  while (static_cast<int>(queries.size()) < kServeWarmQueries) {
    Query query = WarmQuery(rng, queries.size());
    auto kind = probcon::serve::RequestKindFromName(query.kind);
    CHECK(kind.ok());
    auto request = probcon::serve::ServeRequest::FromParams(*kind, query.params);
    CHECK(request.ok()) << request.status().ToString();
    // Distinct canonical keys, so every query is its own cache entry.
    if (keys.insert(request->CanonicalKey()).second) queries.push_back(std::move(query));
  }
  return queries;
}

const char* ColdShapeName(ColdShape shape) {
  switch (shape) {
    case ColdShape::kPlacement: return "placement";
    case ColdShape::kMonteCarlo: return "montecarlo";
    case ColdShape::kAvailability: return "availability";
    case ColdShape::kMission: return "mission";
  }
  return "unknown";
}

Query ColdRequestOfShape(uint64_t seed, uint64_t stream, ColdShape shape) {
  // Continuous draws make every request distinct; the sizes are fixed per shape so each
  // shape's cost stays inside its band.
  Rng rng(DeriveStreamSeed(DeriveStreamSeed(seed, kColdStream), stream));
  Json params = Json::Object();
  switch (shape) {
    case ColdShape::kPlacement:
      // 7 nodes on 2 racks: 2^7 placements, each an exact 2^9 enumeration.
      params.Set("node_probabilities", ProbabilityList(rng, 7, 0.005, 0.05));
      params.Set("rack_probabilities", ProbabilityList(rng, 2, 0.001, 0.01));
      return {"placement", std::move(params)};
    case ColdShape::kMonteCarlo: {
      // 4e4 trials over 15 heterogeneous nodes.
      Json fault = Json::Object();
      fault.Set("probabilities", ProbabilityList(rng, 15, 0.01, 0.1));
      params.Set("protocol", Json::String("raft"));
      params.Set("fault", std::move(fault));
      params.Set("trials", Json::Number(40000));
      params.Set("seed", Json::Number(rng.NextBelow(uint64_t{1} << 40)));
      return {"montecarlo", std::move(params)};
    }
    case ColdShape::kAvailability:
      // 3 classes x 4 nodes: 5^3 = 125 lumped states; steady state and MTTU, plain and
      // during a reconfiguration window.
      params.Set("protocol", Json::String("raft"));
      params.Set("fleet", Fleet(rng, 3, 4, 1e-4, 1e-3, 0.05, 0.2, 2));
      params.Set("reconfiguration", Json::Bool(true));
      return {"availability", std::move(params)};
    case ColdShape::kMission:
      // 3 classes x 4 nodes: 5^3 = 125 states, 350 h mission. A narrow repair-rate range
      // keeps the uniformization term count, and so the cost, nearly constant.
      params.Set("protocol", Json::String("raft"));
      params.Set("fleet", Fleet(rng, 3, 4, 1e-4, 1e-3, 0.33, 0.35, 2));
      params.Set("mission_hours", Json::Number(350));
      return {"mission_reliability", std::move(params)};
  }
  CHECK(false) << "unreachable";
  return {};
}

Query ColdRequest(uint64_t seed, int client, uint64_t index, ColdShape* shape) {
  const uint64_t stream = (static_cast<uint64_t>(client) << 40) | index;
  Rng pick(DeriveStreamSeed(seed ^ kColdStream, stream));
  *shape = static_cast<ColdShape>(pick.NextBelow(kColdShapeCount));
  return ColdRequestOfShape(seed, stream, *shape);
}

uint64_t CampaignSeed(uint64_t seed, uint64_t batch, bool pbft) {
  return DeriveStreamSeed(DeriveStreamSeed(seed, kChaosStream), 2 * batch + (pbft ? 1 : 0));
}

probcon::ChaosPlanGeneratorOptions ChaosGeneratorOptions(bool pbft) {
  probcon::ChaosPlanGeneratorOptions options;
  options.node_count = pbft ? 4 : 5;
  options.horizon = 5000.0;
  return options;
}

probcon::ChaosRunOptions ChaosRunOptionsFor(bool pbft) {
  probcon::ChaosRunOptions options;
  options.protocol = pbft ? probcon::FuzzProtocol::kPbft : probcon::FuzzProtocol::kRaft;
  options.node_count = pbft ? 4 : 5;
  options.settle_time = 2500.0;
  return options;
}

probcon::FuzzCampaignOptions ChaosCampaignOptions(bool pbft, uint64_t campaign_seed,
                                                  int plans, probcon::ThreadPool* pool) {
  probcon::FuzzCampaignOptions options;
  options.generator = ChaosGeneratorOptions(pbft);
  options.run = ChaosRunOptionsFor(pbft);
  options.seed = campaign_seed;
  options.plan_count = plans;
  options.shrink_violations = false;
  options.pool = pool;
  return options;
}

}  // namespace perfbench
