// perfbench_harness: runs one workload and prints its metrics as the last stdout line.
//
//   perfbench_harness --workload serve_warm|engine_cold|chaos_campaign --seed N
//                    --seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]
//   perfbench_harness --self-test
//
// --trace 0 prints the end-to-end metrics of an S-second run. --trace 1 runs the workload
// for S seconds with the harness span log on, prints its end-to-end metrics on a
// "traced_end_to_end" line, then the layer probes (probes.cc) as the result. The exit code
// is 0 only when every answer was correct.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test = false;
  std::string git_sha = "unknown";
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return args->self_test || (!args->workload.empty() && args->seconds > 0.0 &&
                             (args->trace == 0 || args->trace == 1));
}

using RunFn = EndToEnd (*)(const RunConfig&);

struct WorkloadInfo {
  const char* name;
  RunFn run;
  int pool_threads;
  int connections;  // Client connections (TCP or loopback); 0 when the workload has none.
  int client_threads;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"serve_warm", RunServeWarm, kServeWarmPool, kServeWarmConnections, 1},
    {"engine_cold", RunEngineCold, kEngineColdPool, kEngineColdClients, kEngineColdClients},
    {"chaos_campaign", RunChaosCampaign, kChaosPool, 0, 1},
};

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The provenance header: one JSON line before the result.
void PrintEnv(const Args& args, const WorkloadInfo& info) {
  using probcon::Json;
  Json env = Json::Object();
  env.Set("nproc", Json::Number(static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))));
  env.Set("compiler", Json::String(Compiler()));
  env.Set("build_type", Json::String(PERFBENCH_BUILD_TYPE));
  env.Set("git_sha", Json::String(args.git_sha));
  env.Set("workload", Json::String(info.name));
  env.Set("seed", Json::Number(args.seed));
  env.Set("seconds", Json::Number(args.seconds));
  env.Set("trace", Json::Bool(args.trace == 1));
  env.Set("pool_threads", Json::Number(info.pool_threads));
  env.Set("connections", Json::Number(info.connections));
  env.Set("client_threads", Json::Number(info.client_threads));
  Json line = Json::Object();
  line.Set("env", std::move(env));
  std::printf("%s\n", probcon::WriteJson(line).c_str());
}

void PrintErrors(const char* what, const std::vector<std::string>& errors) {
  for (const std::string& error : errors) std::fprintf(stderr, "%s: %s\n", what, error.c_str());
}

// The result line: exactly correct / attempted / failed / metrics.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--git-sha SHA] [--out-dir DIR] | --self-test\n");
    return 2;
  }
  std::vector<std::string> errors;
  if (args.self_test) {
    const bool passed = RunFullSelfTests(&errors);
    PrintErrors("self-test", errors);
    std::printf("self-test: %s\n", passed ? "PASS" : "FAIL");
    return passed ? 0 : 1;
  }
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& candidate : kWorkloads) {
    if (args.workload == candidate.name) info = &candidate;
  }
  if (info == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintEnv(args, *info);

  RunConfig config;
  config.seed = args.seed;
  if (args.trace == 0) {
    config.seconds = args.seconds;
    const EndToEnd result = info->run(config);
    PrintErrors(info->name, result.errors);
    // The harness self-checks run after the workload, so they cannot raise its peak RSS.
    const bool self_tests_ok = RunQuickSelfTests(&errors);
    PrintErrors("self-test", errors);
    const bool correct = result.problems == 0 && self_tests_ok;
    PrintResult(correct, result.attempted, result.failed, result.AsMetrics());
    return correct ? 0 : 1;
  }

  // Traced mode: the workload with the span log on, then the layer probes. run.py pairs
  // this with an untraced run of its own process, so each run's peak RSS is its own.
  SpanLog spans(true, Clock::now());
  config.seconds = args.seconds;
  config.spans = &spans;
  const EndToEnd traced = info->run(config);
  std::string line = "{\"traced_end_to_end\": {";
  for (const Metric& metric : traced.AsMetrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (line.back() != '{') line += ", ";
    line += "\"" + metric.name + "\": " + value;
  }
  std::printf("%s}}\n", line.c_str());
  std::vector<Metric> metrics;
  metrics.push_back({"exec.pool_utilization", "ratio", traced.pool_utilization});
  metrics.push_back({"cache.inserts", "count", static_cast<double>(traced.cache_inserts)});
  std::vector<std::string> probe_errors;
  const bool probes_ok = RunLayerProbes(args.seed, &metrics, &probe_errors) &&
                         RunQuickSelfTests(&probe_errors);
  PrintErrors(info->name, traced.errors);
  PrintErrors("probe", probe_errors);
  if (!args.out_dir.empty()) {
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/" + info->name + ".spans.jsonl";
    if (!spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  const bool correct = traced.problems == 0 && probes_ok;
  PrintResult(correct, traced.attempted, traced.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
