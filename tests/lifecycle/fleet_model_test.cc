#include "src/lifecycle/fleet_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"
#include "src/faultmodel/afr.h"
#include "src/faultmodel/fault_curve.h"

namespace probcon {
namespace {

FleetParams Homogeneous(int n, double lambda, double mu, int servers) {
  FleetParams params;
  params.classes = {{.count = n, .failure_rate = lambda}};
  params.repair_rate = mu;
  params.repair_servers = servers;
  return params;
}

TEST(FleetModelTest, ValidateRejectsStructuralErrors) {
  EXPECT_FALSE(FleetModel::Validate({}).ok());  // No classes.
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(0, 1e-3, 0.1, 1)).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 0.0, 0.1, 1)).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, -1.0, 0.1, 1)).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 1e-3, -0.1, 1)).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 1e-3, 0.1, 0)).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(9999, 1e-3, 0.1, 1)).ok());  // State cap.
  FleetParams no_old = Homogeneous(3, 1e-3, 0.1, 1);
  no_old.classes[0].in_old = false;
  EXPECT_FALSE(FleetModel::Validate(no_old).ok());  // Empty current membership.
  EXPECT_TRUE(FleetModel::Validate(Homogeneous(5, 1e-3, 0.1, 2)).ok());
}

TEST(FleetModelTest, StateSpaceIsPerClassProduct) {
  FleetParams params;
  params.classes = {{.count = 3, .failure_rate = 1e-3},
                    {.count = 2, .failure_rate = 2e-3}};
  params.repair_rate = 0.1;
  const FleetModel model(params, FleetProtocol::kRaft);
  EXPECT_EQ(model.state_count(), 4 * 3);
  EXPECT_EQ(model.total_nodes(), 5);
}

TEST(FleetModelTest, RaftLivenessIsMajorityOfCurrentMembership) {
  FleetParams params = Homogeneous(5, 1e-3, 0.1, 1);
  const FleetModel model(params, FleetProtocol::kRaft);
  EXPECT_TRUE(model.IsLive({0}));
  EXPECT_TRUE(model.IsLive({2}));
  EXPECT_FALSE(model.IsLive({3}));
}

TEST(FleetModelTest, PbftLivenessCountsCrashesAsByzantine) {
  // n = 4 tolerates f = 1: live with one failure, not with two.
  const FleetModel model(Homogeneous(4, 1e-3, 0.1, 1), FleetProtocol::kPbft);
  EXPECT_TRUE(model.IsLive({1}));
  EXPECT_FALSE(model.IsLive({2}));
}

TEST(FleetModelTest, ReconfigurationNeedsQuorumsInBothMemberships) {
  // Old membership = {A:3}, new membership = {B:3}; A is being replaced by B.
  FleetParams params;
  params.classes = {{.count = 3, .failure_rate = 1e-3, .in_old = true, .in_new = false},
                    {.count = 3, .failure_rate = 1e-3, .in_old = false, .in_new = true}};
  params.repair_rate = 0.1;
  const FleetModel model(params, FleetProtocol::kRaft);
  // Steady operation only consults the old membership.
  EXPECT_TRUE(model.IsLive({1, 3}));
  // The joint window additionally needs a majority of the new one.
  EXPECT_FALSE(model.IsLiveDuringReconfiguration({1, 3}));
  EXPECT_TRUE(model.IsLiveDuringReconfiguration({1, 1}));
  EXPECT_FALSE(model.IsLiveDuringReconfiguration({2, 0}));
}

// -----------------------------------------------------------------------------------------
// Golden cross-checks: a single class is a birth-death chain (k failed, births
// b_k = (n - k) * lambda, deaths d_k = min(k, servers) * mu), so its answers have closed
// forms that share no code with the chain solver.

double Birth(int n, double lambda, int k) { return (n - k) * lambda; }
double Death(double mu, int servers, int k) { return std::min(k, servers) * mu; }

// Expected time from all-up until `target` nodes are down: h_k = 1/b_k + (d_k/b_k) h_{k-1}
// is the expected time from k to k+1 failed, and the hitting time is their sum.
double HittingTime(int n, double lambda, double mu, int servers, int target) {
  double total = 0.0;
  double h_prev = 0.0;
  for (int k = 0; k < target; ++k) {
    const double h_k =
        1.0 / Birth(n, lambda, k) + Death(mu, servers, k) / Birth(n, lambda, k) * h_prev;
    total += h_k;
    h_prev = h_k;
  }
  return total;
}

TEST(FleetModelTest, HomogeneousAvailabilityMatchesBirthDeathProductForm) {
  // pi_k is proportional to prod_{i<k} b_i / d_{i+1}; Raft n=5 is live with <= 2 failed.
  const int n = 5;
  const double lambda = 2e-3;
  const double mu = 0.25;
  for (const int servers : {1, 2, n}) {
    const FleetModel fleet(Homogeneous(n, lambda, mu, servers), FleetProtocol::kRaft);
    std::vector<double> weight(n + 1, 1.0);
    double total = 1.0;
    for (int k = 1; k <= n; ++k) {
      weight[k] = weight[k - 1] * Birth(n, lambda, k - 1) / Death(mu, servers, k);
      total += weight[k];
    }
    const double live = (weight[0] + weight[1] + weight[2]) / total;
    const auto availability = fleet.TrySteadyStateAvailability(false, {});
    ASSERT_TRUE(availability.ok());
    EXPECT_NEAR(availability->value(), live, 1e-12) << servers;
  }
}

TEST(FleetModelTest, HomogeneousPbftMttuMatchesHittingTimeRecursion) {
  // PBFT n=4 loses liveness at the second failure.
  const int n = 4;
  const double lambda = 1e-3;
  const double mu = 0.5;
  const FleetModel fleet(Homogeneous(n, lambda, mu, 2), FleetProtocol::kPbft);
  const auto mttu = fleet.TryMeanTimeToUnavailability(false, {});
  ASSERT_TRUE(mttu.ok());
  EXPECT_NEAR(*mttu / HittingTime(n, lambda, mu, 2, 2), 1.0, 1e-10);
}

TEST(FleetModelTest, HomogeneousMttqlMatchesHittingTimeRecursion) {
  const int n = 5;
  const FleetModel fleet(Homogeneous(n, 5e-3, 0.1, 1), FleetProtocol::kRaft);
  const auto mttql = fleet.TryMeanTimeToQuorumLoss(4, {});
  ASSERT_TRUE(mttql.ok());
  EXPECT_NEAR(*mttql / HittingTime(n, 5e-3, 0.1, 1, 4), 1.0, 1e-10);
}

TEST(FleetModelTest, HomogeneousMissionReliabilityMatchesMatrixExponential) {
  // Raft n=3 with per-node repair: the outage (2 failed) is absorbing, so reliability is
  // the row sum of exp(A t) from all-up, where A is the sub-generator on {0, 1} failed. For
  // a 2x2 A with eigenvalues r1 != r2, exp(A t) = (e^{r1 t}(A - r2 I) - e^{r2 t}(A - r1 I))
  // / (r1 - r2); its first row sums to (e^{r1 t}(a00 + a01 - r2) - e^{r2 t}(a00 + a01 - r1))
  // / (r1 - r2).
  const int n = 3;
  const double lambda = 1e-2;
  const double mu = 0.2;
  const FleetModel fleet(Homogeneous(n, lambda, mu, n), FleetProtocol::kRaft);
  const double a00 = -3 * lambda;
  const double a01 = 3 * lambda;
  const double a10 = mu;
  const double a11 = -(mu + 2 * lambda);
  const double trace = a00 + a11;
  const double discriminant = std::sqrt(trace * trace - 4 * (a00 * a11 - a01 * a10));
  const double r1 = (trace + discriminant) / 2;
  const double r2 = (trace - discriminant) / 2;
  for (const double t : {100.0, 1000.0, 8766.0}) {
    const double survival = (std::exp(r1 * t) * (a00 + a01 - r2) -
                             std::exp(r2 * t) * (a00 + a01 - r1)) /
                            (r1 - r2);
    const auto reliability = fleet.TryMissionReliability(t, false, {});
    ASSERT_TRUE(reliability.ok());
    EXPECT_NEAR(reliability->complement(), 1.0 - survival, 1e-9) << t;
  }
}

TEST(FleetModelTest, SteadyStateMatchesIndependentNodeClosedForm) {
  // With per-node repair (servers >= n) the nodes are independent M/M/1 machines:
  // P(up) = mu / (lambda + mu), availability = P(Binomial(n, up) >= quorum).
  const int n = 3;
  const double lambda = 0.02;
  const double mu = 0.5;
  const FleetModel fleet(Homogeneous(n, lambda, mu, n), FleetProtocol::kRaft);
  const auto availability = fleet.TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(availability.ok());
  const double up = mu / (lambda + mu);
  const double expected = 3 * up * up * (1 - up) + up * up * up;
  EXPECT_NEAR(availability->value(), expected, 1e-12);
}

TEST(FleetModelTest, MttuMatchesBirthDeathHittingTimeRecursion) {
  const int n = 5;
  const double lambda = 3e-3;
  const double mu = 0.4;
  const int servers = 2;
  const FleetModel fleet(Homogeneous(n, lambda, mu, servers), FleetProtocol::kRaft);
  const auto mttu = fleet.TryMeanTimeToUnavailability(false, {});
  ASSERT_TRUE(mttu.ok());
  // Outage at 3 failed (alive < 3).
  EXPECT_NEAR(*mttu / HittingTime(n, lambda, mu, servers, 3), 1.0, 1e-10);
}

// -----------------------------------------------------------------------------------------
// Heterogeneous behavior.

TEST(FleetModelTest, AgedVintageLowersAvailability) {
  FleetParams fresh;
  fresh.classes = {{.count = 5, .failure_rate = 1e-3}};
  fresh.repair_rate = 0.05;
  FleetParams mixed;
  mixed.classes = {{.count = 3, .failure_rate = 1e-3},
                   {.count = 2, .failure_rate = 2e-2}};  // Worn-out vintage.
  mixed.repair_rate = 0.05;
  const auto fresh_avail =
      FleetModel(fresh, FleetProtocol::kRaft).TrySteadyStateAvailability(false, {});
  const auto mixed_avail =
      FleetModel(mixed, FleetProtocol::kRaft).TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(fresh_avail.ok());
  ASSERT_TRUE(mixed_avail.ok());
  EXPECT_LT(mixed_avail->value(), fresh_avail->value());
}

TEST(FleetModelTest, FromCurveFreezesHazardAtAge) {
  const WeibullFaultCurve curve(2.0, 1000.0);
  const FleetClass cls = FleetClass::FromCurve(curve, 500.0, 4);
  EXPECT_EQ(cls.count, 4);
  EXPECT_NEAR(cls.failure_rate, curve.HazardRate(500.0), 1e-15);
}

TEST(FleetModelTest, ReconfigurationWindowIsLessAvailable) {
  FleetParams params;
  params.classes = {{.count = 3, .failure_rate = 5e-3, .in_old = true, .in_new = true},
                    {.count = 2, .failure_rate = 5e-3, .in_old = false, .in_new = true}};
  params.repair_rate = 0.1;
  const FleetModel model(params, FleetProtocol::kRaft);
  const auto steady = model.TrySteadyStateAvailability(false, {});
  const auto joint = model.TrySteadyStateAvailability(true, {});
  ASSERT_TRUE(steady.ok());
  ASSERT_TRUE(joint.ok());
  EXPECT_LT(joint->value(), steady->value());
  const auto steady_mttu = model.TryMeanTimeToUnavailability(false, {});
  const auto joint_mttu = model.TryMeanTimeToUnavailability(true, {});
  ASSERT_TRUE(steady_mttu.ok());
  ASSERT_TRUE(joint_mttu.ok());
  EXPECT_LT(*joint_mttu, *steady_mttu);
}

TEST(FleetModelTest, NoRepairMeansZeroSteadyAvailability) {
  const FleetModel model(Homogeneous(3, 1e-3, 0.0, 1), FleetProtocol::kRaft);
  const auto availability = model.TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(availability.ok());
  EXPECT_DOUBLE_EQ(availability->value(), 0.0);
}

TEST(FleetModelTest, DowntimeHoursPerYear) {
  EXPECT_NEAR(FleetModel::DowntimeHoursPerYear(Probability::FromComplement(1e-3)),
              kHoursPerYear * 1e-3, 1e-9);
}

TEST(FleetModelTest, SolversHonorCancellation) {
  const FleetModel model(Homogeneous(5, 1e-3, 0.1, 2), FleetProtocol::kRaft);
  CancelToken token;
  token.Cancel();
  const CtmcSolveOptions options{.cancel = &token};
  EXPECT_EQ(model.TrySteadyStateAvailability(false, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(model.TryMeanTimeToUnavailability(false, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(model.TryMissionReliability(1000.0, false, options).status().code(),
            StatusCode::kCancelled);
}

TEST(FleetModelTest, ProgressCellAdvances) {
  std::atomic<uint64_t> steps{0};
  const FleetModel model(Homogeneous(3, 1e-2, 0.2, 3), FleetProtocol::kRaft);
  const auto reliability =
      model.TryMissionReliability(10000.0, false, {.progress = &steps});
  ASSERT_TRUE(reliability.ok());
  EXPECT_GT(steps.load(), 0u);
}

// -----------------------------------------------------------------------------------------
// The birth-death repair model (MTTF / MTTDL / availability in the storage literature's
// sense) is a single-class fleet; Raft majorities give the quorum.

FleetModel RaftCluster(int n, double lambda, double mu, int servers = 1) {
  return FleetModel(Homogeneous(n, lambda, mu, servers), FleetProtocol::kRaft);
}

TEST(RepairModelTest, NoRepairMttfIsHarmonicSum) {
  // Without repair, time to k-th failure from n nodes = sum_{j=0}^{k-1} 1 / ((n-j) lambda).
  // Majority quorum 3 of 5: outage at 3 failures.
  const auto mttf = RaftCluster(5, 0.01, 0.0).TryMeanTimeToUnavailability(false, {});
  ASSERT_TRUE(mttf.ok());
  const double expected = 1.0 / (5 * 0.01) + 1.0 / (4 * 0.01) + 1.0 / (3 * 0.01);
  EXPECT_NEAR(*mttf, expected, expected * 1e-9);
}

TEST(RepairModelTest, RepairExtendsMttf) {
  const auto slow = RaftCluster(5, 0.01, 0.0).TryMeanTimeToUnavailability(false, {});
  const auto fast = RaftCluster(5, 0.01, 0.5).TryMeanTimeToUnavailability(false, {});
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_GT(*fast, *slow * 10.0);  // Repair helps enormously at mu/lambda = 50 (~60x here).
}

TEST(RepairModelTest, MttfMonotoneInRepairRate) {
  double previous = 0.0;
  for (const double mu : {0.0, 0.1, 0.5, 2.0}) {
    const auto mttf = RaftCluster(7, 0.02, mu).TryMeanTimeToUnavailability(false, {});
    ASSERT_TRUE(mttf.ok());
    EXPECT_GT(*mttf, previous);
    previous = *mttf;
  }
}

TEST(RepairModelTest, QuorumLossVsUnavailabilityThresholds) {
  // Losing a majority quorum (outage, at 3 failures) happens before all 5 nodes are down at
  // once (wipeout of a full persistence quorum placement).
  const FleetModel model = RaftCluster(5, 0.01, 0.2);
  const auto outage = model.TryMeanTimeToUnavailability(false, {});
  const auto wipeout = model.TryMeanTimeToQuorumLoss(5, {});
  ASSERT_TRUE(outage.ok());
  ASSERT_TRUE(wipeout.ok());
  EXPECT_GT(*wipeout, *outage);
}

TEST(RepairModelTest, SteadyStateAvailabilityTwoState) {
  // n=1, quorum 1: classic availability mu/(mu+lambda).
  const auto availability = RaftCluster(1, 0.1, 0.9).TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(availability.ok());
  EXPECT_NEAR(availability->value(), 0.9, 1e-9);
}

TEST(RepairModelTest, SteadyStateAvailabilityImprovesWithCluster) {
  const auto one = RaftCluster(1, 0.01, 0.1).TrySteadyStateAvailability(false, {});
  const auto three = RaftCluster(3, 0.01, 0.1, 3).TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_GT(three->value(), one->value());
}

TEST(RepairModelTest, NoRepairSteadyStateAvailabilityIsZero) {
  const auto availability = RaftCluster(3, 0.01, 0.0).TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(availability.ok());
  EXPECT_DOUBLE_EQ(availability->value(), 0.0);
}

TEST(RepairModelTest, UnavailabilityWithinGrowsWithMissionTime) {
  const FleetModel model = RaftCluster(3, 0.05, 0.5);
  const auto short_mission = model.TryMissionReliability(1.0, false, {});
  const auto long_mission = model.TryMissionReliability(50.0, false, {});
  ASSERT_TRUE(short_mission.ok());
  ASSERT_TRUE(long_mission.ok());
  const double p_short = short_mission->complement();
  const double p_long = long_mission->complement();
  EXPECT_LT(p_short, p_long);
  EXPECT_GT(p_short, 0.0);
  EXPECT_LT(p_long, 1.0);
}

TEST(RepairModelTest, UnavailabilityWithinMatchesExponentialForSingleNode) {
  // n=1, quorum 1, no repair: P(outage by t) = 1 - exp(-lambda t).
  const FleetModel model = RaftCluster(1, 0.2, 0.0);
  for (const double t : {0.5, 2.0, 10.0}) {
    const auto reliability = model.TryMissionReliability(t, false, {});
    ASSERT_TRUE(reliability.ok());
    EXPECT_NEAR(reliability->complement(), 1.0 - std::exp(-0.2 * t), 1e-8) << t;
  }
}

TEST(RepairModelTest, RepairServerCountMatters) {
  const auto slow = RaftCluster(9, 0.1, 0.15, 1).TryMeanTimeToUnavailability(false, {});
  const auto fast = RaftCluster(9, 0.1, 0.15, 9).TryMeanTimeToUnavailability(false, {});
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_GT(*fast, *slow);
}

}  // namespace
}  // namespace probcon
