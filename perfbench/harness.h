// Shared pieces of the perfbench harness: options, clocks, sample statistics, the seeded
// input generators, and the entry points of the three workloads and the layer probes.
//
// Everything here drives probcon from the outside, through the same public headers a
// client or an operator tool would use. Nothing in src/ knows this harness exists.

#ifndef PROBCON_PERFBENCH_HARNESS_H_
#define PROBCON_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/fuzz.h"
#include "src/chaos/plan_generator.h"
#include "src/common/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Process CPU time (user + system, every thread) in seconds.
double ProcessCpuSeconds();
// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Sample statistics

// Nearest-rank percentile of an ascending sample: the value at index ceil(q * n) - 1.
// Fails (returns false) unless at least `min_beyond` samples lie strictly above the chosen
// index, so a reported tail is never one or two stragglers.
bool PickPercentile(const std::vector<double>& sorted, double q, size_t min_beyond,
                    double* value);

// Minimum samples beyond a reported tail percentile.
inline constexpr size_t kMinTailSamples = 10;

double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// One workload run's end-to-end figures plus its books.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;    // Ops that failed or answered wrongly.
  uint64_t problems = 0;  // Every correctness problem, including books that disagree.
  std::vector<std::string> errors;  // First few correctness failures, for stderr.

  // Run-scoped layer counters, read while the workload's objects are still alive.
  double pool_utilization = 0.0;  // exec pool busy / (wall x workers) over the timed window.
  uint64_t cache_inserts = 0;     // QueryCache leader computations over the whole run.

  std::vector<Metric> AsMetrics() const;
};

// In-memory span log for traced runs: one record per timed operation, written out as
// JSON lines when the run ends. It keeps the first kMaxSpans spans, so a fast workload's
// traced run does not grow without bound.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

inline constexpr size_t kMaxSpans = 100000;

class SpanLog {
 public:
  explicit SpanLog(bool enabled, Clock::time_point origin);
  bool enabled() const { return enabled_; }
  Clock::time_point origin() const { return origin_; }
  void Record(const char* name, uint64_t id, Clock::time_point start, Clock::time_point end);
  void Merge(SpanLog&& other);
  // Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// How a workload run is configured. `spans` is null for an untraced run.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  SpanLog* spans = nullptr;
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)

// Fixed sizes, printed in the provenance header and documented in README.md.
inline constexpr int kServeWarmConnections = 4;
inline constexpr int kServeWarmWindow = 4;  // Pipelined requests in flight per connection.
inline constexpr int kServeWarmReactors = 2;
inline constexpr int kServeWarmPool = 1;
inline constexpr int kServeWarmQueries = 320;
// Engines run inline on the two client threads (a 0-worker pool). With a shared pool a
// request's parallel chunks queue behind the other client's and wait on workers whose CPU
// the host took away, and the p99 moved 2x from run to run.
inline constexpr int kEngineColdClients = 2;
inline constexpr int kEngineColdPool = 0;
// Campaigns run inline (a 0-worker pool): on a shared host a pooled campaign's latency is
// bimodal, whole campaigns running serially whenever a worker's CPU is taken away. The
// pooled-over-inline speedup is a layer probe instead (exec.campaign_speedup, measured
// with kCampaignSpeedupPool workers).
inline constexpr int kChaosPool = 0;
inline constexpr int kCampaignSpeedupPool = 2;
inline constexpr int kChaosPlansPerCampaign = 2;
// The seed's fixed plan set: kChaosCampaigns campaigns per protocol, 200 plans in all.
inline constexpr int kChaosCampaigns = 50;

EndToEnd RunServeWarm(const RunConfig& config);
EndToEnd RunEngineCold(const RunConfig& config);
EndToEnd RunChaosCampaign(const RunConfig& config);

// ---------------------------------------------------------------------------
// Seeded inputs (inputs.cc). Each is a pure function of its arguments.

struct Query {
  std::string kind;
  probcon::Json params;
};

// The serve_warm dashboard working set: kServeWarmQueries distinct cheap queries.
std::vector<Query> WarmWorkingSet(uint64_t seed);

enum class ColdShape : int { kPlacement = 0, kMonteCarlo, kAvailability, kMission };
inline constexpr int kColdShapeCount = 4;
const char* ColdShapeName(ColdShape shape);

// Request `index` of engine_cold client `client`: a distinct, never-cached query whose
// shape is drawn from the seed.
Query ColdRequest(uint64_t seed, int client, uint64_t index, ColdShape* shape);
// The same, with the shape fixed by the caller (probes and self-tests).
Query ColdRequestOfShape(uint64_t seed, uint64_t stream, ColdShape shape);

// Chaos campaign batch `batch`: the root seed of its Raft and its PBFT campaign.
uint64_t CampaignSeed(uint64_t seed, uint64_t batch, bool pbft);
// The chaos_campaign configuration, shared by the workload, the probes and the
// self-tests: Raft n=5 or PBFT n=4, honest, no repro dumps, and half the generator's
// default chaos window and settle time, so plans stay a few ms each and a run holds
// enough campaigns for a p99.
probcon::ChaosPlanGeneratorOptions ChaosGeneratorOptions(bool pbft);
probcon::ChaosRunOptions ChaosRunOptionsFor(bool pbft);
probcon::FuzzCampaignOptions ChaosCampaignOptions(bool pbft, uint64_t campaign_seed,
                                                  int plans, probcon::ThreadPool* pool);

// ---------------------------------------------------------------------------
// Layer probes (probes.cc) and self-tests (selftest.cc).

// Times each layer through its public functions on fixed, seeded work. Appends one
// metric per named layer metric to `out`. Returns false (with messages in `errors`) when
// a probe's answer disagrees with the workload path.
bool RunLayerProbes(uint64_t seed, std::vector<Metric>* out, std::vector<std::string>* errors);

// Cheap checks run before every measurement: percentile picker and input determinism.
bool RunQuickSelfTests(std::vector<std::string>* errors);
// The full suite, including the timed engine_cold cost-band check.
bool RunFullSelfTests(std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PROBCON_PERFBENCH_HARNESS_H_
