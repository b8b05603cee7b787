// E12 — google-benchmark microbenchmarks for the analysis engine: the cost of the three
// evaluation strategies (exact 2^N enumeration, Poisson-binomial count DP, Monte Carlo) and
// of the protocol implementations on the simulator. This is the ablation behind DESIGN.md
// decision D2.
//
// The BM_*Threads benchmarks re-run the heavy strategies under ScopedThreadPool overrides
// of 1/2/8 workers; `--json <path>` writes name -> {ns_per_op, threads, speedup_vs_1_thread}
// (see docs/PERFORMANCE.md for how BENCH_engine.json is produced and read).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/importance_sampling.h"
#include "src/analysis/reliability.h"
#include "src/consensus/raft/raft_cluster.h"
#include "src/exec/parallel.h"
#include "src/exec/thread_pool.h"
#include "src/prob/poisson_binomial.h"

namespace probcon {
namespace {

std::vector<double> MixedProbabilities(int n) {
  std::vector<double> probs;
  probs.reserve(n);
  for (int i = 0; i < n; ++i) {
    probs.push_back(0.01 + 0.07 * (i % 5) / 4.0);
  }
  return probs;
}

void BM_ExactEnumeration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(n));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.EventProbability(predicate, AnalysisMethod::kExact).complement());
  }
}
BENCHMARK(BM_ExactEnumeration)->Arg(5)->Arg(10)->Arg(15)->Arg(20);

void BM_CountDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(n));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.EventProbability(predicate, AnalysisMethod::kCountDp).complement());
  }
}
BENCHMARK(BM_CountDp)->Arg(5)->Arg(20)->Arg(64);

void BM_MonteCarlo(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(n));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(n));
  MonteCarloOptions options;
  options.trials = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.EstimateEventProbability(predicate, options).point);
  }
}
BENCHMARK(BM_MonteCarlo)->Arg(5)->Arg(20)->Arg(64);

void BM_PoissonBinomialConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto probs = MixedProbabilities(n);
  for (auto _ : state) {
    PoissonBinomial pb(probs);
    benchmark::DoNotOptimize(pb.Pmf(n / 2));
  }
}
BENCHMARK(BM_PoissonBinomialConstruction)->Arg(9)->Arg(64)->Arg(256);

void BM_PbftFullReport(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(n, 0.01);
  const auto config = PbftConfig::Standard(n);
  for (auto _ : state) {
    const auto report = AnalyzePbft(config, analyzer);
    benchmark::DoNotOptimize(report.safe_and_live.complement());
  }
}
BENCHMARK(BM_PbftFullReport)->Arg(4)->Arg(7)->Arg(31);

void BM_ImportanceSampling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IndependentFailureModel model(MixedProbabilities(n));
  const auto predicate = CountPredicate(
      [n](int failures, int /*nodes*/) { return failures >= n / 2 + 1; });
  ImportanceSamplingOptions options;
  options.trials = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateRareEventProbability(model, predicate, options).probability);
  }
}
BENCHMARK(BM_ImportanceSampling)->Arg(9)->Arg(20);

void BM_RaftSimulatedSecond(benchmark::State& state) {
  // Cost of one simulated second of a healthy 5-node Raft cluster.
  for (auto _ : state) {
    RaftClusterOptions options;
    options.config = RaftConfig::Standard(5);
    options.seed = 1;
    RaftCluster cluster(options);
    cluster.Start();
    cluster.RunUntil(1'000.0);
    benchmark::DoNotOptimize(cluster.checker().committed_slots());
  }
}
BENCHMARK(BM_RaftSimulatedSecond);

// --- Thread-count scaling (the probcon::exec runtime) -------------------------------------
//
// Each benchmark overrides the global pool for the duration of the run; the work and its
// chunking are identical across arguments, so the RESULT is bit-identical and only the
// wall time changes. UseRealTime because the work runs on pool workers, not the timing
// thread.

void BM_MonteCarloThreads(benchmark::State& state) {
  ScopedThreadPool pool(static_cast<int>(state.range(0)));
  const int n = 64;
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(n));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(n));
  MonteCarloOptions options;
  options.trials = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.EstimateEventProbability(predicate, options).point);
  }
}
BENCHMARK(BM_MonteCarloThreads)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_ExactEnumerationThreads(benchmark::State& state) {
  ScopedThreadPool pool(static_cast<int>(state.range(0)));
  const int n = 20;
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(n));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.EventProbability(predicate, AnalysisMethod::kExact).complement());
  }
}
BENCHMARK(BM_ExactEnumerationThreads)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_ImportanceSamplingThreads(benchmark::State& state) {
  ScopedThreadPool pool(static_cast<int>(state.range(0)));
  const int n = 20;
  const IndependentFailureModel model(MixedProbabilities(n));
  const auto predicate = CountPredicate(
      [n](int failures, int /*nodes*/) { return failures >= n / 2 + 1; });
  ImportanceSamplingOptions options;
  options.trials = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateRareEventProbability(model, predicate, options).probability);
  }
}
BENCHMARK(BM_ImportanceSamplingThreads)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_RaftTrialSweepThreads(benchmark::State& state) {
  ScopedThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto committed = RunTrials(8, [](uint64_t trial) {
      RaftClusterOptions options;
      options.config = RaftConfig::Standard(5);
      options.seed = trial + 1;
      RaftCluster cluster(options);
      cluster.Start();
      cluster.RunUntil(500.0);
      return cluster.checker().max_committed_slot();
    });
    benchmark::DoNotOptimize(committed.data());
  }
}
BENCHMARK(BM_RaftTrialSweepThreads)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

// Console output as usual, plus an in-memory capture of (name, ns/op) so main can emit the
// BENCH_engine.json document. Thread-count runs are named BM_Foo/<threads>/real_time.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) {
        continue;
      }
      runs_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  // {"env": {...}, "benchmarks": {name: {"ns_per_op": x, "threads": t,
  // "speedup_vs_1_thread": s}}}, env as in bench_util.h's EnvJson.
  // `threads` is the ScopedThreadPool argument for BM_*Threads runs (0 otherwise), and
  // speedup is measured against the same benchmark's 1-worker run.
  std::string ToJson() const {
    std::map<std::string, double> one_thread_ns;
    for (const auto& [name, ns] : runs_) {
      if (ThreadArg(name) == 1) {
        one_thread_ns[BaseName(name)] = ns;
      }
    }
    std::string json = "{\n  \"env\": " + bench::EnvJson() + ",\n  \"benchmarks\": {";
    for (size_t i = 0; i < runs_.size(); ++i) {
      const auto& [name, ns] = runs_[i];
      const int threads = ThreadArg(name);
      char entry[256];
      const auto baseline = one_thread_ns.find(BaseName(name));
      if (threads > 0 && baseline != one_thread_ns.end() && ns > 0.0) {
        std::snprintf(entry, sizeof(entry),
                      "{\"ns_per_op\": %.6g, \"threads\": %d, \"speedup_vs_1_thread\": %.3f}",
                      ns, threads, baseline->second / ns);
      } else {
        std::snprintf(entry, sizeof(entry), "{\"ns_per_op\": %.6g}", ns);
      }
      json += (i > 0 ? ",\n    " : "\n    ") + ("\"" + bench::JsonEscape(name) + "\": ") + entry;
    }
    json += runs_.empty() ? "}" : "\n  }";
    json += "\n}\n";
    return json;
  }

 private:
  // "BM_MonteCarloThreads/8/real_time" -> 8; 0 when the name has no numeric argument.
  static int ThreadArg(const std::string& name) {
    if (name.find("Threads/") == std::string::npos) {
      return 0;
    }
    const size_t slash = name.find('/');
    return std::atoi(name.c_str() + slash + 1);
  }

  static std::string BaseName(const std::string& name) {
    return name.substr(0, name.find('/'));
  }

  std::vector<std::pair<std::string, double>> runs_;
};

}  // namespace
}  // namespace probcon

int main(int argc, char** argv) {
  const std::string json_path = probcon::bench::JsonPathFromArgs(argc, argv);
  // Drop the --json pair before handing argv to google-benchmark (it rejects unknown flags).
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  probcon::JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n", json_path.c_str());
      return 1;
    }
    const std::string json = reporter.ToJson();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("JSON report written to %s\n", json_path.c_str());
  }
  return 0;
}
