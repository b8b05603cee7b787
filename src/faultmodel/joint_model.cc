#include "src/faultmodel/joint_model.h"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/check.h"

namespace probcon {
namespace {

void CheckProbabilityVector(const std::vector<double>& probabilities) {
  CHECK(!probabilities.empty());
  CHECK_LE(probabilities.size(), 64u) << "bitmask configurations support up to 64 nodes";
  for (const double p : probabilities) {
    CHECK(p >= 0.0 && p <= 1.0) << "probability out of range:" << p;
  }
}

// Models that need a scratch table per block work through it in aligned sub-blocks of at
// most 2^kTableBits configurations (8 KiB of doubles on the stack).
constexpr int kTableBits = 10;
constexpr size_t kTableSize = size_t{1} << kTableBits;

void CheckBlock(FailureConfiguration first, int low_bits, int n) {
  CHECK(low_bits >= 0 && low_bits <= n && low_bits < 64)
      << "block of" << low_bits << "bits over" << n << "nodes";
  CHECK_EQ(first & ((FailureConfiguration{1} << low_bits) - 1), 0u)
      << "block start is not aligned to" << low_bits << "bits";
}

// Extends table[0], the start of a left fold, to the 2^bits partial folds over nodes
// 0..bits-1: entry x ends as table[0] * f_0 * ... * f_{bits-1} in that order, where f_j is
// fail[j] when bit j of x is set and survive[j] when it is clear.
void DoubleTable(int bits, const double* fail, const double* survive, double* table) {
  for (int j = 0; j < bits; ++j) {
    const size_t half = size_t{1} << j;
    for (size_t x = 0; x < half; ++x) {
      table[x + half] = table[x] * fail[j];
      table[x] *= survive[j];
    }
  }
}

// ln Gamma(x). std::lgamma also stores the sign in the global `signgam`, a data race when
// enumeration chunks run on several threads; lgamma_r computes the same value and returns
// the sign in a local.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

// Continues the folds of a block's 2^bits entries with nodes bits..n-1, whose states are
// those of `first` for every entry.
void FoldHighNodes(FailureConfiguration first, int bits, int n, const double* fail,
                   const double* survive, double* table) {
  const size_t size = size_t{1} << bits;
  for (int j = bits; j < n; ++j) {
    const double factor = NodeFailed(first, j) ? fail[j] : survive[j];
    for (size_t x = 0; x < size; ++x) {
      table[x] *= factor;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// IndependentFailureModel

IndependentFailureModel::IndependentFailureModel(std::vector<double> probabilities)
    : probabilities_(std::move(probabilities)) {
  CheckProbabilityVector(probabilities_);
}

IndependentFailureModel IndependentFailureModel::Uniform(int n, double p) {
  CHECK_GT(n, 0);
  return IndependentFailureModel(std::vector<double>(static_cast<size_t>(n), p));
}

FailureConfiguration IndependentFailureModel::Sample(Rng& rng) const {
  FailureConfiguration config = 0;
  for (size_t i = 0; i < probabilities_.size(); ++i) {
    if (rng.NextBernoulli(probabilities_[i])) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double IndependentFailureModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n());
  return probabilities_[node];
}

bool IndependentFailureModel::ConfigurationProbabilities(FailureConfiguration first,
                                                         int low_bits, double* out) const {
  // prob = 1.0, then prob *= (failed ? p_i : 1 - p_i) for i = 0..n-1.
  CheckBlock(first, low_bits, n());
  double survive[64];
  for (int i = 0; i < n(); ++i) {
    survive[i] = 1.0 - probabilities_[i];
  }
  out[0] = 1.0;
  DoubleTable(low_bits, probabilities_.data(), survive, out);
  FoldHighNodes(first, low_bits, n(), probabilities_.data(), survive, out);
  return true;
}

std::string IndependentFailureModel::Describe() const {
  std::ostringstream os;
  os << "independent(n=" << n() << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> IndependentFailureModel::Clone() const {
  return std::make_unique<IndependentFailureModel>(*this);
}

// ---------------------------------------------------------------------------
// CommonCauseFailureModel

CommonCauseFailureModel::CommonCauseFailureModel(std::vector<double> base_probabilities,
                                                 double shock_probability,
                                                 std::vector<double> shock_hit_probabilities)
    : base_probabilities_(std::move(base_probabilities)),
      shock_probability_(shock_probability),
      shock_hit_probabilities_(std::move(shock_hit_probabilities)) {
  CheckProbabilityVector(base_probabilities_);
  CheckProbabilityVector(shock_hit_probabilities_);
  CHECK_EQ(base_probabilities_.size(), shock_hit_probabilities_.size());
  CHECK(shock_probability >= 0.0 && shock_probability <= 1.0);
}

FailureConfiguration CommonCauseFailureModel::Sample(Rng& rng) const {
  const bool shock = rng.NextBernoulli(shock_probability_);
  FailureConfiguration config = 0;
  for (int i = 0; i < n(); ++i) {
    bool failed = rng.NextBernoulli(base_probabilities_[i]);
    if (shock && !failed) {
      failed = rng.NextBernoulli(shock_hit_probabilities_[i]);
    }
    if (failed) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double CommonCauseFailureModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n());
  const double base = base_probabilities_[node];
  const double with_shock = base + (1.0 - base) * shock_hit_probabilities_[node];
  return (1.0 - shock_probability_) * base + shock_probability_ * with_shock;
}

bool CommonCauseFailureModel::ConfigurationProbabilities(FailureConfiguration first,
                                                         int low_bits, double* out) const {
  // Condition on the shock indicator: two folds from 1.0, one over the base probabilities
  // (no shock) and one over combined = base + (1 - base) * hit (shock), mixed at the end.
  CheckBlock(first, low_bits, n());
  double survive[64];
  double combined[64];
  double combined_survive[64];
  for (int i = 0; i < n(); ++i) {
    const double base = base_probabilities_[i];
    survive[i] = 1.0 - base;
    combined[i] = base + (1.0 - base) * shock_hit_probabilities_[i];
    combined_survive[i] = 1.0 - combined[i];
  }
  const int bits = std::min(low_bits, kTableBits);
  const size_t size = size_t{1} << bits;
  double with_shock[kTableSize];
  for (FailureConfiguration offset = 0; offset < (FailureConfiguration{1} << low_bits);
       offset += size) {
    double* no_shock = out + offset;
    no_shock[0] = 1.0;
    with_shock[0] = 1.0;
    DoubleTable(bits, base_probabilities_.data(), survive, no_shock);
    DoubleTable(bits, combined, combined_survive, with_shock);
    FoldHighNodes(first + offset, bits, n(), base_probabilities_.data(), survive, no_shock);
    FoldHighNodes(first + offset, bits, n(), combined, combined_survive, with_shock);
    for (size_t x = 0; x < size; ++x) {
      no_shock[x] = (1.0 - shock_probability_) * no_shock[x] + shock_probability_ * with_shock[x];
    }
  }
  return true;
}

std::string CommonCauseFailureModel::Describe() const {
  std::ostringstream os;
  os << "common_cause(n=" << n() << ", shock=" << shock_probability_ << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> CommonCauseFailureModel::Clone() const {
  return std::make_unique<CommonCauseFailureModel>(*this);
}

// ---------------------------------------------------------------------------
// FailureDomainModel

FailureDomainModel::FailureDomainModel(std::vector<double> base_probabilities,
                                       std::vector<int> domain_of,
                                       std::vector<double> domain_probabilities)
    : base_probabilities_(std::move(base_probabilities)),
      domain_of_(std::move(domain_of)),
      domain_probabilities_(std::move(domain_probabilities)) {
  CheckProbabilityVector(base_probabilities_);
  CHECK_EQ(domain_of_.size(), base_probabilities_.size());
  CHECK(!domain_probabilities_.empty());
  for (const double p : domain_probabilities_) {
    CHECK(p >= 0.0 && p <= 1.0);
  }
  domain_members_.resize(domain_probabilities_.size());
  Reassign(domain_of_);
}

void FailureDomainModel::Reassign(const std::vector<int>& domain_of) {
  CHECK_EQ(domain_of.size(), base_probabilities_.size());
  std::fill(domain_members_.begin(), domain_members_.end(), FailureConfiguration{0});
  for (int i = 0; i < n(); ++i) {
    const int d = domain_of[i];
    CHECK(d >= 0 && d < domain_count()) << "domain id out of range:" << d;
    domain_of_[i] = d;
    domain_members_[d] |= FailureConfiguration{1} << i;
  }
}

FailureConfiguration FailureDomainModel::Sample(Rng& rng) const {
  uint64_t failed_domains = 0;
  for (int d = 0; d < domain_count(); ++d) {
    if (rng.NextBernoulli(domain_probabilities_[d])) {
      failed_domains |= uint64_t{1} << d;
    }
  }
  FailureConfiguration config = 0;
  for (int i = 0; i < n(); ++i) {
    const bool domain_down = (failed_domains >> domain_of_[i]) & 1u;
    if (domain_down || rng.NextBernoulli(base_probabilities_[i])) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double FailureDomainModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n());
  const double base = base_probabilities_[node];
  const double domain = domain_probabilities_[domain_of_[node]];
  return 1.0 - (1.0 - base) * (1.0 - domain);
}

bool FailureDomainModel::ConfigurationProbabilities(FailureConfiguration first, int low_bits,
                                                    double* out) const {
  // Per configuration: sum over domain events, in ascending event order, of
  //   prod_d (down_d ? q_d : 1 - q_d) * prod_i (failed_i ? (down_i ? 1 : p_i)
  //                                               : (down_i ? 0 : 1 - p_i)),
  // each a left fold from 1.0. A term with a surviving member of a down domain is zero and
  // adds nothing to the sum, so only the events a configuration is consistent with are
  // folded, and the certain failures of down domains' members are not multiplied by 1.
  const int domains = domain_count();
  if (domains > 20) {
    return false;  // 2^D enumeration would be too expensive.
  }
  CheckBlock(first, low_bits, n());
  double survive[64];
  for (int i = 0; i < n(); ++i) {
    survive[i] = 1.0 - base_probabilities_[i];
  }
  const int bits = std::min(low_bits, kTableBits);
  const size_t size = size_t{1} << bits;
  const FailureConfiguration low_mask = (FailureConfiguration{1} << bits) - 1;
  double table[kTableSize];
  for (FailureConfiguration offset = 0; offset < (FailureConfiguration{1} << low_bits);
       offset += size) {
    const FailureConfiguration block = first + offset;
    double* total = out + offset;
    std::fill(total, total + size, 0.0);
    for (uint64_t event = 0; event < (uint64_t{1} << domains); ++event) {
      double prob = 1.0;
      FailureConfiguration down = 0;
      for (int d = 0; d < domains; ++d) {
        if ((event >> d) & 1u) {
          prob *= domain_probabilities_[d];
          down |= domain_members_[d];
        } else {
          prob *= 1.0 - domain_probabilities_[d];
        }
      }
      // Skip impossible events, and events some high node of the block contradicts.
      if (prob == 0.0 || (block & down & ~low_mask) != (down & ~low_mask)) {
        continue;
      }
      table[0] = prob;
      for (int j = 0; j < bits; ++j) {
        const size_t half = size_t{1} << j;
        if (NodeFailed(down, j)) {
          // Only the failed half is consistent; the other half is never read.
          std::copy(table, table + half, table + half);
          continue;
        }
        for (size_t x = 0; x < half; ++x) {
          table[x + half] = table[x] * base_probabilities_[j];
          table[x] *= survive[j];
        }
      }
      for (int j = bits; j < n(); ++j) {
        if (NodeFailed(down, j)) {
          continue;
        }
        const double factor = NodeFailed(block, j) ? base_probabilities_[j] : survive[j];
        for (size_t x = 0; x < size; ++x) {
          table[x] *= factor;
        }
      }
      const FailureConfiguration down_low = down & low_mask;
      for (size_t x = 0; x < size; ++x) {
        if ((x & down_low) == down_low) {
          total[x] += table[x];
        }
      }
    }
  }
  return true;
}

std::string FailureDomainModel::Describe() const {
  std::ostringstream os;
  os << "failure_domains(n=" << n() << ", domains=" << domain_count() << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> FailureDomainModel::Clone() const {
  return std::make_unique<FailureDomainModel>(*this);
}

// ---------------------------------------------------------------------------
// BetaBinomialFailureModel

BetaBinomialFailureModel::BetaBinomialFailureModel(int n, double alpha, double beta)
    : n_(n), alpha_(alpha), beta_(beta) {
  CHECK(n > 0 && n <= 64);
  CHECK_GT(alpha, 0.0);
  CHECK_GT(beta, 0.0);
}

FailureConfiguration BetaBinomialFailureModel::Sample(Rng& rng) const {
  const double p = SampleBeta(rng, alpha_, beta_);
  FailureConfiguration config = 0;
  for (int i = 0; i < n_; ++i) {
    if (rng.NextBernoulli(p)) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double BetaBinomialFailureModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n_);
  return alpha_ / (alpha_ + beta_);
}

bool BetaBinomialFailureModel::ConfigurationProbabilities(FailureConfiguration first,
                                                          int low_bits, double* out) const {
  // For k failures out of n: integral of p^k (1-p)^(n-k) over Beta(alpha, beta)
  //   = B(alpha + k, beta + n - k) / B(alpha, beta),
  // tabulated once per block over the counts its members can have.
  CheckBlock(first, low_bits, n_);
  const int base_count = CountFailures(first);
  double by_count[65];
  for (int extra = 0; extra <= low_bits; ++extra) {
    const int k = base_count + extra;
    const double log_prob = LogGamma(alpha_ + k) + LogGamma(beta_ + n_ - k) -
                            LogGamma(alpha_ + beta_ + n_) - LogGamma(alpha_) -
                            LogGamma(beta_) + LogGamma(alpha_ + beta_);
    by_count[extra] = std::exp(log_prob);
  }
  for (FailureConfiguration x = 0; x < (FailureConfiguration{1} << low_bits); ++x) {
    out[x] = by_count[CountFailures(x)];
  }
  return true;
}

std::string BetaBinomialFailureModel::Describe() const {
  std::ostringstream os;
  os << "beta_binomial(n=" << n_ << ", alpha=" << alpha_ << ", beta=" << beta_ << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> BetaBinomialFailureModel::Clone() const {
  return std::make_unique<BetaBinomialFailureModel>(*this);
}

// ---------------------------------------------------------------------------
// Samplers

double SampleGamma(Rng& rng, double shape) {
  CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = std::max(rng.NextDouble(), 1e-300);
    return SampleGamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x;
    double v;
    do {
      x = rng.NextNormal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double SampleBeta(Rng& rng, double alpha, double beta) {
  const double x = SampleGamma(rng, alpha);
  const double y = SampleGamma(rng, beta);
  return x / (x + y);
}

}  // namespace probcon
