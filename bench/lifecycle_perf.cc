// ES2 — Fleet-lifecycle performance: CTMC solver wall-time against lumped state count, and
// served throughput of the lifecycle kinds (availability / mission_reliability /
// repair_sweep) over an in-process loopback server, cold (engine) vs warm (memo cache).
//
// The solver table justifies the serving caps in src/serve/spec.cc: the direct solves are
// O(m^3) in the state count m, so kMaxFleetStatesServe bounds worst-case engine time, and
// the uniformization budget bounds mission solves. Emits BENCH_lifecycle.json
// (`--json <path>`), same shape as BENCH_serve.json.
//
// Latencies are wall-clock (steady_clock; bench/lifecycle_perf.cc is on the lint
// monotonic-clock allowlist) — this harness measures the host, not the model.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/lifecycle/fleet_model.h"
#include "src/lifecycle/repair_sweep.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace probcon {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// One solver measurement: availability + MTTU + one-year mission reliability at the given
// class layout, repeated enough to get a stable per-solve figure.
void SolverRow(bench::Table* table, bench::JsonReport* report, const std::string& label,
               const std::vector<int>& class_counts) {
  FleetParams params;
  for (size_t c = 0; c < class_counts.size(); ++c) {
    // Spread rates across vintages so the chain is genuinely heterogeneous.
    params.classes.push_back(
        {.count = class_counts[c], .failure_rate = 1e-3 * static_cast<double>(c + 1)});
  }
  params.repair_rate = 0.1;
  params.repair_servers = 2;
  const FleetModel model(params, FleetProtocol::kRaft);

  constexpr int kReps = 5;
  const auto steady_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    auto availability = model.TrySteadyStateAvailability(false, {});
    CHECK(availability.ok());
  }
  const double steady_ms = MsSince(steady_start) / kReps;

  // The 63-node chain's outage is so rare that elimination loses its MTTU to round-off
  // (the solve comes out negative); the solver refuses that answer after doing the same
  // work, so the row still times the solve and is marked refused.
  bool mttu_refused = false;
  const auto mttu_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    auto mttu = model.TryMeanTimeToUnavailability(false, {});
    CHECK(mttu.ok() || mttu.status().code() == StatusCode::kFailedPrecondition)
        << mttu.status().ToString();
    mttu_refused = !mttu.ok();
  }
  const double mttu_ms = MsSince(mttu_start) / kReps;

  const auto mission_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    auto reliability = model.TryMissionReliability(8766.0, false, {});
    CHECK(reliability.ok());
  }
  const double mission_ms = MsSince(mission_start) / kReps;

  char steady_text[32], mttu_text[32], mission_text[32];
  std::snprintf(steady_text, sizeof(steady_text), "%.3f", steady_ms);
  std::snprintf(mttu_text, sizeof(mttu_text), mttu_refused ? "%.3f refused" : "%.3f", mttu_ms);
  std::snprintf(mission_text, sizeof(mission_text), "%.3f", mission_ms);
  table->AddRow({label, std::to_string(model.state_count()), steady_text, mttu_text,
                 mission_text});
  report->AddValue(label + ".states", model.state_count());
  report->AddValue(label + ".steady_ms", steady_ms);
  report->AddValue(label + ".mttu_ms", mttu_ms);
  if (mttu_refused) report->AddValue(label + ".mttu_refused", 1);
  report->AddValue(label + ".mission_ms", mission_ms);
}

Json AvailabilityParams(int count) {
  Json cls = Json::Object();
  cls.Set("count", Json::Number(count));
  cls.Set("failure_rate", Json::Number(1e-3));
  Json classes = Json::Array();
  classes.Append(std::move(cls));
  Json fleet = Json::Object();
  fleet.Set("classes", std::move(classes));
  fleet.Set("repair_rate", Json::Number(0.1));
  Json params = Json::Object();
  params.Set("protocol", Json::String("raft"));
  params.Set("fleet", std::move(fleet));
  return params;
}

Json MissionParams(int rounds) {
  Json curve = Json::Object();
  curve.Set("kind", Json::String("weibull"));
  curve.Set("shape", Json::Number(0.7));
  curve.Set("scale", Json::Number(100000.0));
  Json schedule = Json::Object();
  schedule.Set("curve", std::move(curve));
  schedule.Set("n", Json::Number(5));
  schedule.Set("round_hours", Json::Number(24.0));
  schedule.Set("rounds", Json::Number(rounds));
  Json params = Json::Object();
  params.Set("protocol", Json::String("raft"));
  params.Set("schedule", std::move(schedule));
  return params;
}

Json SweepParams(int points) {
  Json cls = Json::Object();
  cls.Set("count", Json::Number(5));
  cls.Set("failure_rate", Json::Number(1e-3));
  Json classes = Json::Array();
  classes.Append(std::move(cls));
  Json fleet = Json::Object();
  fleet.Set("classes", std::move(classes));
  Json params = Json::Object();
  params.Set("protocol", Json::String("raft"));
  params.Set("fleet", std::move(fleet));
  params.Set("min_rate", Json::Number(0.01));
  params.Set("max_rate", Json::Number(10.0));
  params.Set("points", Json::Number(points));
  params.Set("target_availability", Json::Number(0.99999));
  return params;
}

// Issues `requests` queries of one kind; `vary` perturbs the params per request so the cold
// run misses the memo cache every time (vary = false repeats one request: warm path).
void ServeRows(bench::Table* table, bench::JsonReport* report, const std::string& kind,
               int requests, bool vary) {
  serve::QueryServer server(serve::ServerOptions{});
  serve::ServeClient client(std::make_unique<serve::LoopbackChannel>(server));
  const auto start = std::chrono::steady_clock::now();
  int ok = 0;
  for (int i = 0; i < requests; ++i) {
    const int variant = vary ? i : 0;
    Json params;
    if (kind == "availability") {
      params = AvailabilityParams(3 + variant % 30);
    } else if (kind == "mission_reliability") {
      params = MissionParams(10 + variant % 50);
    } else {
      params = SweepParams(4 + variant % 16);
    }
    auto response = client.Query(kind, params);
    if (response.ok() && response->status.ok()) {
      ++ok;
    }
  }
  const double total_ms = MsSince(start);
  const double qps = requests / (total_ms / 1000.0);
  const std::string label = kind + (vary ? ".cold" : ".warm");
  char qps_text[32], ms_text[32];
  std::snprintf(qps_text, sizeof(qps_text), "%.1f", qps);
  std::snprintf(ms_text, sizeof(ms_text), "%.3f", total_ms / requests);
  table->AddRow({label, std::to_string(requests), std::to_string(ok), ms_text, qps_text});
  report->AddValue(label + ".qps", qps);
  report->AddValue(label + ".mean_ms", total_ms / requests);
}

void Run(const char* json_path) {
  bench::PrintBanner("ES2", "fleet-lifecycle solver scaling and served throughput");
  bench::JsonReport report;

  bench::Table solver({"fleet", "states", "steady_ms", "mttu_ms", "mission_ms"});
  SolverRow(&solver, &report, "1x7", {7});
  SolverRow(&solver, &report, "1x15", {15});
  SolverRow(&solver, &report, "1x31", {31});
  SolverRow(&solver, &report, "1x63", {63});
  SolverRow(&solver, &report, "2x15", {15, 15});
  SolverRow(&solver, &report, "3x9", {9, 9, 9});
  SolverRow(&solver, &report, "4x5", {5, 5, 5, 5});
  solver.Print();
  report.AddTable("lifecycle_solver", solver);

  std::printf("\nserved throughput (loopback, single connection):\n");
  bench::Table serve_table({"kind", "requests", "ok", "mean_ms", "qps"});
  for (const std::string kind : {"availability", "mission_reliability", "repair_sweep"}) {
    ServeRows(&serve_table, &report, kind, 64, /*vary=*/true);
    ServeRows(&serve_table, &report, kind, 512, /*vary=*/false);
  }
  serve_table.Print();
  report.AddTable("lifecycle_serve", serve_table);

  if (json_path != nullptr && !report.WriteTo(json_path)) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace probcon

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  probcon::Run(json_path);
  return 0;
}
