// Pins the exact engines' answers to the last bit: exact 2^N enumeration under all four joint
// failure models, the rack-placement search, and the fleet CTMC solves. The hex-float
// literals below were recorded from the straightforward per-configuration fold and dense
// elimination these engines started from, so a kernel rewrite that changes any operation
// or its order fails here by an ulp instead of hiding inside a tolerance.
//
// A failing comparison prints the actual table row, ready to paste, so a deliberate
// numerical change (which must be argued separately) regenerates the table in one run.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/placement.h"
#include "src/analysis/reliability.h"
#include "src/faultmodel/joint_model.h"
#include "src/lifecycle/fleet_model.h"

namespace probcon {
namespace {

struct Golden {
  const char* name;
  double value;
};

using Computed = std::vector<std::pair<std::string, double>>;

std::string Row(const std::string& name, double value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "{\"%s\", %a},", name.c_str(), value);
  return buffer;
}

// Compares bit patterns (so -0.0 != +0.0 and every ulp counts).
void ExpectBitIdentical(const Computed& actual, const std::vector<Golden>& expected) {
  if (actual.size() != expected.size()) {
    std::string table;
    for (const auto& [name, value] : actual) table += Row(name, value) + "\n";
    FAIL() << "expected " << expected.size() << " rows, computed " << actual.size() << ":\n"
           << table;
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].name);
    EXPECT_EQ(std::bit_cast<uint64_t>(actual[i].second),
              std::bit_cast<uint64_t>(expected[i].value))
        << "actual row: " << Row(actual[i].first, actual[i].second);
  }
}

// Deterministic, irregular per-node probabilities in [lo, hi].
std::vector<double> Spread(int n, double lo, double hi, int salt) {
  std::vector<double> probabilities;
  for (int i = 0; i < n; ++i) {
    const double fraction = static_cast<double>((i * 37 + salt * 11) % 101) / 100.0;
    probabilities.push_back(lo + (hi - lo) * fraction);
  }
  return probabilities;
}

std::vector<int> RoundRobin(int n, int domains) {
  std::vector<int> domain_of;
  for (int i = 0; i < n; ++i) domain_of.push_back(i % domains);
  return domain_of;
}

// Raft liveness (count predicate, served by the count table), PBFT safe-and-live, and a
// configuration predicate that depends on which node failed.
void Enumerate(const std::string& name, std::unique_ptr<JointFailureModel> model,
               Computed* out) {
  const int n = model->n();
  const ReliabilityAnalyzer analyzer(std::move(model));
  const Probability live =
      analyzer.EventProbability(MakeRaftLivePredicate(RaftConfig::Standard(n)),
                                AnalysisMethod::kExact);
  out->emplace_back(name + "/raft_live", live.complement());
  if (n >= 4) {
    const Probability safe_and_live = analyzer.EventProbability(
        MakePbftSafeAndLivePredicate(PbftConfig::Standard(n)), AnalysisMethod::kExact);
    out->emplace_back(name + "/pbft_safe_and_live", safe_and_live.complement());
  }
  const ConfigurationPredicate node0_up_and_majority(
      [](FailureConfiguration config, int nodes) {
        return !NodeFailed(config, 0) && 2 * CountFailures(config) < nodes;
      });
  const Probability custom =
      analyzer.EventProbability(node0_up_and_majority, AnalysisMethod::kExact);
  out->emplace_back(name + "/node0_up_and_majority", custom.value());
  const FailureConfiguration all = (FailureConfiguration{1} << n) - 1;
  for (const FailureConfiguration config : {FailureConfiguration{0}, all & 0b101, all}) {
    out->emplace_back(name + "/config" + std::to_string(config),
                      *analyzer.model().ConfigurationProbability(config));
  }
}

Computed EnumerationAnswers() {
  Computed out;
  for (const int n : {5, 9, 20}) {
    const std::string tag = "/n" + std::to_string(n);
    Enumerate("independent" + tag,
              std::make_unique<IndependentFailureModel>(Spread(n, 0.001, 0.2, 1)), &out);
    Enumerate("common_cause" + tag,
              std::make_unique<CommonCauseFailureModel>(Spread(n, 0.001, 0.1, 2), 0.02,
                                                        Spread(n, 0.1, 0.9, 3)),
              &out);
    Enumerate("domains" + tag,
              std::make_unique<FailureDomainModel>(Spread(n, 0.001, 0.1, 4), RoundRobin(n, 3),
                                                   std::vector<double>{0.01, 0.002, 0.05}),
              &out);
    Enumerate("beta_binomial" + tag, std::make_unique<BetaBinomialFailureModel>(n, 0.7, 20.0),
              &out);
  }
  // Edges of the block form: certain and impossible nodes, certain and impossible domain
  // events, and every node in one domain.
  std::vector<double> edge = Spread(9, 0.0, 0.2, 5);
  edge[0] = 0.0;
  edge[8] = 1.0;
  Enumerate("independent_edge/n9", std::make_unique<IndependentFailureModel>(edge), &out);
  Enumerate("domains_edge/n9",
            std::make_unique<FailureDomainModel>(edge, RoundRobin(9, 3),
                                                 std::vector<double>{0.0, 1.0, 0.5}),
            &out);
  Enumerate("one_domain/n9",
            std::make_unique<FailureDomainModel>(Spread(9, 0.001, 0.1, 6), RoundRobin(9, 1),
                                                 std::vector<double>{0.03}),
            &out);
  return out;
}

Computed PlacementAnswers() {
  Computed out;
  for (const auto& [nodes, racks] : {std::pair{7, 2}, std::pair{8, 3}}) {
    const std::string tag = std::to_string(nodes) + "x" + std::to_string(racks);
    const PlacementResult best = OptimizeRackPlacement(Spread(nodes, 0.005, 0.05, 7),
                                                       Spread(racks, 0.001, 0.01, 8));
    out.emplace_back(tag + "/failure_probability", best.safe_and_live.complement());
    int encoded = 0;
    for (int i = nodes - 1; i >= 0; --i) encoded = encoded * racks + best.rack_of[i];
    out.emplace_back(tag + "/assignment", encoded);
  }
  return out;
}

FleetParams Fleet(int classes, int per_class, double rate_lo, double rate_hi, double repair,
                  int servers) {
  FleetParams params;
  const std::vector<double> rates = Spread(classes, rate_lo, rate_hi, 9);
  for (int c = 0; c < classes; ++c) {
    FleetClass fleet_class;
    fleet_class.count = per_class;
    fleet_class.failure_rate = rates[c];
    fleet_class.in_new = c != 0;  // The reconfiguration window retires class 0.
    params.classes.push_back(fleet_class);
  }
  params.repair_rate = repair;
  params.repair_servers = servers;
  return params;
}

Computed FleetAnswers() {
  struct Case {
    const char* name;
    FleetParams params;
    std::vector<int> loss_thresholds;
  };
  const std::vector<Case> cases = {
      {"3x4", Fleet(3, 4, 2e-4, 9e-4, 0.1, 2), {3, 6}},
      {"2x15", Fleet(2, 15, 3e-3, 8e-3, 0.05, 2), {4, 10}},
      {"3x9", Fleet(3, 9, 1e-3, 4e-3, 0.08, 3), {5, 9}},
  };
  Computed out;
  for (const Case& c : cases) {
    const FleetModel model(c.params, FleetProtocol::kRaft);
    for (const bool reconfiguration : {false, true}) {
      const std::string tag =
          std::string(c.name) + (reconfiguration ? "/reconfiguration" : "/plain");
      out.emplace_back(tag + "/unavailability",
                       model.TrySteadyStateAvailability(reconfiguration, {})->complement());
      out.emplace_back(tag + "/mttu", *model.TryMeanTimeToUnavailability(reconfiguration, {}));
      out.emplace_back(tag + "/mission_outage",
                       model.TryMissionReliability(350.0, reconfiguration, {})->complement());
    }
    for (const int threshold : c.loss_thresholds) {
      out.emplace_back(std::string(c.name) + "/mttql" + std::to_string(threshold),
                       *model.TryMeanTimeToQuorumLoss(threshold, {}));
    }
  }
  return out;
}

TEST(ExactKernelsGoldenTest, EnumerationIsBitIdentical) {
  ExpectBitIdentical(EnumerationAnswers(), {
      {"independent/n5/raft_live", 0x1.411f46fbb842dp-8},
      {"independent/n5/pbft_safe_and_live", 0x1.034f9394afa3cp-4},
      {"independent/n5/node0_up_and_majority", 0x1.f26e3107ef8fdp-1},
      {"independent/n5/config0", 0x1.3d3cd3c71fb67p-1},
      {"independent/n5/config5", 0x1.8615c69eac5a8p-9},
      {"independent/n5/config31", 0x1.f6b1fec56b6fbp-20},
      {"common_cause/n5/raft_live", 0x1.75e2c4fe1eefbp-7},
      {"common_cause/n5/pbft_safe_and_live", 0x1.6118f60a6cebep-5},
      {"common_cause/n5/node0_up_and_majority", 0x1.ee0ed0c171a46p-1},
      {"common_cause/n5/config0", 0x1.7788ae53419a3p-1},
      {"common_cause/n5/config5", 0x1.eeea7ea37c20dp-10},
      {"common_cause/n5/config31", 0x1.b3036e8578da7p-12},
      {"domains/n5/raft_live", 0x1.531eda861415fp-8},
      {"domains/n5/pbft_safe_and_live", 0x1.a1382515bd1b9p-5},
      {"domains/n5/node0_up_and_majority", 0x1.e37b21915a7bp-1},
      {"domains/n5/config0", 0x1.641a6be1eca6fp-1},
      {"domains/n5/config5", 0x1.310438ca9c05cp-9},
      {"domains/n5/config31", 0x1.0552291951065p-17},
      {"beta_binomial/n5/raft_live", 0x1.43a834d469859p-9},
      {"beta_binomial/n5/pbft_safe_and_live", 0x1.5645196e7600ep-6},
      {"beta_binomial/n5/node0_up_and_majority", 0x1.ee33dcc929785p-1},
      {"beta_binomial/n5/config0", 0x1.b5807157c03fp-1},
      {"beta_binomial/n5/config5", 0x1.e2e68486414d2p-10},
      {"beta_binomial/n5/config31", 0x1.3a17f04c4d3c9p-17},
      {"independent/n9/raft_live", 0x1.a04bda5b7491fp-12},
      {"independent/n9/pbft_safe_and_live", 0x1.50d8fa68993a3p-5},
      {"independent/n9/node0_up_and_majority", 0x1.f420df1755d9p-1},
      {"independent/n9/config0", 0x1.9c49998c3c578p-2},
      {"independent/n9/config5", 0x1.faf618d90169p-10},
      {"independent/n9/config511", 0x1.df6c2dec4e791p-36},
      {"common_cause/n9/raft_live", 0x1.3b1af62d8047bp-7},
      {"common_cause/n9/pbft_safe_and_live", 0x1.94ce6e7e9c96ep-6},
      {"common_cause/n9/node0_up_and_majority", 0x1.ee60ccca8202fp-1},
      {"common_cause/n9/config0", 0x1.43b5d9b2fef96p-1},
      {"common_cause/n9/config5", 0x1.9b37cff266e52p-10},
      {"common_cause/n9/config511", 0x1.d49b4a21babc4p-17},
      {"domains/n9/raft_live", 0x1.710ea18d6b7e9p-9},
      {"domains/n9/pbft_safe_and_live", 0x1.1322a3ff367cfp-4},
      {"domains/n9/node0_up_and_majority", 0x1.e388f8e7d454ap-1},
      {"domains/n9/config0", 0x1.377181f889efbp-1},
      {"domains/n9/config5", 0x1.0e03763d16eb2p-11},
      {"domains/n9/config511", 0x1.11b052122dc81p-20},
      {"beta_binomial/n9/raft_live", 0x1.1e662e4a8aea6p-11},
      {"beta_binomial/n9/pbft_safe_and_live", 0x1.b91be5c4671f3p-7},
      {"beta_binomial/n9/node0_up_and_majority", 0x1.ee913a53b4e06p-1},
      {"beta_binomial/n9/config0", 0x1.8a1a2ac3b8fecp-1},
      {"beta_binomial/n9/config5", 0x1.3d9e0054eb91ap-10},
      {"beta_binomial/n9/config511", 0x1.7918b4f4249d1p-25},
      {"independent/n20/raft_live", 0x1.986488d939b35p-19},
      {"independent/n20/pbft_safe_and_live", 0x1.c86481baa5931p-10},
      {"independent/n20/node0_up_and_majority", 0x1.f4477198b274p-1},
      {"independent/n20/config0", 0x1.e4297803dc4b5p-4},
      {"independent/n20/config5", 0x1.29ab91bfab173p-11},
      {"independent/n20/config1048575", 0x1.2e43aba63f299p-75},
      {"common_cause/n20/raft_live", 0x1.d470ea282a81p-7},
      {"common_cause/n20/pbft_safe_and_live", 0x1.421bb51e2d09fp-6},
      {"common_cause/n20/node0_up_and_majority", 0x1.ec8b6d90535a2p-1},
      {"common_cause/n20/config0", 0x1.5e7baad9e05aap-2},
      {"common_cause/n20/config5", 0x1.bc6d8ce1fa62p-11},
      {"common_cause/n20/config1048575", 0x1.44c4d71f0d36ap-27},
      {"domains/n20/raft_live", 0x1.fb3609ed1f53p-11},
      {"domains/n20/pbft_safe_and_live", 0x1.3252924a38804p-5},
      {"domains/n20/node0_up_and_majority", 0x1.e42984f4d6afap-1},
      {"domains/n20/config0", 0x1.6760e3e7f31f8p-2},
      {"domains/n20/config5", 0x1.3792707f692ep-12},
      {"domains/n20/config1048575", 0x1.0c6f7bd72c86fp-20},
      {"beta_binomial/n20/raft_live", 0x1.a7987a6a45144p-14},
      {"beta_binomial/n20/pbft_safe_and_live", 0x1.1539726c95093p-9},
      {"beta_binomial/n20/node0_up_and_majority", 0x1.eea94c9b9d254p-1},
      {"beta_binomial/n20/config0", 0x1.3a59d98ab4597p-1},
      {"beta_binomial/n20/config5", 0x1.0278d5eac2415p-11},
      {"beta_binomial/n20/config1048575", 0x1.871fb7ef3c431p-39},
      {"independent_edge/n9/raft_live", 0x1.07c3977a3e994p-10},
      {"independent_edge/n9/pbft_safe_and_live", 0x1.e200c1b5f3743p-4},
      {"independent_edge/n9/node0_up_and_majority", 0x1.ff7c1e3442e0bp-1},
      {"independent_edge/n9/config0", 0x0p+0},
      {"independent_edge/n9/config5", 0x0p+0},
      {"independent_edge/n9/config511", 0x0p+0},
      {"domains_edge/n9/raft_live", 0x1.5adf18cc2122cp-1},
      {"domains_edge/n9/pbft_safe_and_live", 0x1p+0},
      {"domains_edge/n9/node0_up_and_majority", 0x1.4a41ce67bdba9p-2},
      {"domains_edge/n9/config0", 0x0p+0},
      {"domains_edge/n9/config5", 0x0p+0},
      {"domains_edge/n9/config511", 0x0p+0},
      {"one_domain/n9/raft_live", 0x1.ebbda19477d3ep-6},
      {"one_domain/n9/pbft_safe_and_live", 0x1.258c971b4bd04p-5},
      {"one_domain/n9/node0_up_and_majority", 0x1.cfb0e8b981329p-1},
      {"one_domain/n9/config0", 0x1.433e8f60063b2p-1},
      {"one_domain/n9/config5", 0x1.e500e4c8c4861p-10},
      {"one_domain/n9/config511", 0x1.eb851eb854f3p-6},
  });
}

TEST(ExactKernelsGoldenTest, PlacementIsBitIdentical) {
  ExpectBitIdentical(PlacementAnswers(), {
      {"7x2/failure_probability", 0x1.a17e27d2afc14p-9},
      {"7x2/assignment", 0x1.fcp+6},
      {"8x3/failure_probability", 0x1.71d11006ce08ep-10},
      {"8x3/assignment", 0x1.ee2p+11},
  });
}

TEST(ExactKernelsGoldenTest, FleetSolvesAreBitIdentical) {
  ExpectBitIdentical(FleetAnswers(), {
      {"3x4/plain/unavailability", 0x1.e1bb91f7cfa7dp-30},
      {"3x4/plain/mttu", 0x1.631adaa70d6dcp+31},
      {"3x4/plain/mission_outage", 0x1.cd881e26ec52fp-24},
      {"3x4/reconfiguration/unavailability", 0x1.e0815c3372925p-23},
      {"3x4/reconfiguration/mttu", 0x1.642c210fa8a28p+24},
      {"3x4/reconfiguration/mission_outage", 0x1.da2863751b5eap-17},
      {"3x4/mttql3", 0x1.ae507aaac572dp+15},
      {"3x4/mttql6", 0x1.631adaa70d6dcp+31},
      {"2x15/plain/unavailability", 0x1.c6eece5b80628p-2},
      {"2x15/plain/mttu", 0x1.524f06e4ec767p+8},
      {"2x15/plain/mission_outage", 0x1.450f7bcadaa98p-1},
      {"2x15/reconfiguration/unavailability", 0x1.e04aafadee955p-2},
      {"2x15/reconfiguration/mttu", 0x1.3e5d71f3eaa69p+8},
      {"2x15/reconfiguration/mission_outage", 0x1.5797fa5322095p-1},
      {"2x15/mttql4", 0x1.08fd5451cc56cp+5},
      {"2x15/mttql10", 0x1.186f7c81ba9f2p+7},
      {"3x9/plain/unavailability", 0x1.1011222a2d00ap-27},
      {"3x9/plain/mttu", 0x1.691f6b852d536p+29},
      {"3x9/plain/mission_outage", 0x1.8ac1de00a4449p-22},
      {"3x9/reconfiguration/unavailability", 0x1.1ac4777ee693bp-22},
      {"3x9/reconfiguration/mttu", 0x1.61e533f766531p+24},
      {"3x9/reconfiguration/mission_outage", 0x1.ace1f1f353724p-17},
      {"3x9/mttql5", 0x1.1b5f6497a9665p+10},
      {"3x9/mttql9", 0x1.e05ce75fbc9a4p+17},
  });
}

}  // namespace
}  // namespace probcon
