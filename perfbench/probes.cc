// Layer probes for the traced run: fixed, seeded work timed through each layer's public
// functions. Timings are medians of many calls; counts repeat exactly for a given seed.
//
//   serve     transport (TcpChannel::RoundTrip), server (QueryServer::Handle, stats verb),
//             spec (RequestEnvelope::Parse, ServeRequest::CanonicalKey), cache (TryGet)
//   engine    serve::ExecuteRequest per engine_cold shape; analysis (exact enumeration and
//             Monte Carlo); lifecycle (FleetModel constructor and solvers)
//   chaos     ChaosPlanGenerator, inline ExecuteChaosPlan, an own replay on RaftCluster /
//             PbftCluster + Nemesis for the sim and consensus counts, and the pooled over
//             inline campaign speedup (exec)

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/analysis/reliability.h"
#include "src/chaos/fuzz.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/plan_generator.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/consensus/pbft/pbft_cluster.h"
#include "src/consensus/raft/raft_cluster.h"
#include "src/exec/thread_pool.h"
#include "src/lifecycle/fleet_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/client.h"
#include "src/serve/engine.h"
#include "src/serve/server.h"
#include "src/serve/spec.h"
#include "src/serve/transport.h"

namespace perfbench {
namespace {

using probcon::Json;
namespace serve = probcon::serve;

// Median wall time of `calls` invocations of `fn`, in microseconds.
double MedianUs(int calls, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(calls);
  for (int i = 0; i < calls; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  return Median(std::move(times));
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

std::string Payload(const Query& query, uint64_t id, bool trace = false) {
  return serve::RequestEnvelope::Serialize(id, query.kind, query.params, 0.0, trace);
}

serve::ServeRequest Parsed(const Query& query) {
  auto kind = serve::RequestKindFromName(query.kind);
  CHECK(kind.ok());
  auto request = serve::ServeRequest::FromParams(*kind, query.params);
  CHECK(request.ok()) << request.status().ToString();
  return *std::move(request);
}

// ---------------------------------------------------------------------------
// serve: the serve_warm path, one layer at a time.

void ProbeServe(uint64_t seed, std::vector<Metric>* out, std::vector<std::string>* errors) {
  constexpr int kCalls = 2000;
  probcon::ScopedThreadPool pool(kServeWarmPool);
  probcon::MetricsRegistry metrics;
  serve::QueryServer server(serve::ServerOptions{}, &metrics);
  serve::TcpServerOptions transport_options;
  transport_options.reactors = kServeWarmReactors;
  serve::TcpServer transport(server, &metrics, transport_options);
  CHECK(transport.Start(0).ok());
  auto channel = serve::TcpChannel::Connect(transport.port());
  CHECK(channel.ok()) << channel.status().ToString();

  // Three passes over the working set: computed, text-memo hits, and traced requests
  // (which skip the text memo and walk parse, canonicalize, cache and serialize).
  const std::vector<Query> queries = WarmWorkingSet(seed);
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<std::string> payloads;
    for (size_t i = 0; i < queries.size(); ++i) {
      payloads.push_back(Payload(queries[i], i + 1, /*trace=*/pass == 2));
    }
    auto responses = (*channel)->RoundTripBatch(payloads);
    CHECK(responses.ok()) << responses.status().ToString();
    for (const std::string& response : *responses) {
      if (response.find("\"status\": \"OK\"") == std::string::npos) {
        errors->push_back("serve probe: " + response);
      }
    }
  }
  serve::ServeClient stats_client(std::make_unique<serve::LoopbackChannel>(server));
  auto stats = stats_client.Query("stats", Json::Object());
  CHECK(stats.ok() && stats->status.ok());
  const Json* metrics_json = stats->result.Find("metrics");
  auto counter = [&](const char* name) {
    const Json* node = metrics_json->Find("counters")->Find(name);
    return node == nullptr ? 0.0 : node->NumberValue();
  };
  const double memo_hits = counter("serve.text_memo.hits");
  out->push_back({"server.text_memo_hit_ratio", "ratio",
                  Ratio(memo_hits, memo_hits + counter("serve.text_memo.misses"))});
  for (const char* stage : {"parse", "canonicalize", "cache", "engine", "serialize"}) {
    const Json* histogram =
        metrics_json->Find("histograms")->Find(std::string("serve.stage_ms.") + stage);
    const Json* p50 = histogram == nullptr ? nullptr : histogram->Find("p50");
    out->push_back({std::string("serve.stage_ms.") + stage + ".p50", "ms",
                    p50 == nullptr ? 0.0 : p50->NumberValue()});
  }
  const auto cache_stats = server.cache().snapshot();
  out->push_back({"cache.hit_ratio", "ratio",
                  Ratio(static_cast<double>(cache_stats.hits),
                        static_cast<double>(cache_stats.hits + cache_stats.misses))});

  // Per-call timings on one warm payload.
  const std::string payload = Payload(queries.front(), 7);
  const std::string reference = server.Handle(payload);
  auto envelope = serve::RequestEnvelope::Parse(payload);
  CHECK(envelope.ok());
  const std::string key = envelope->request.CanonicalKey();
  out->push_back({"transport.tcp_rtt_us_p50", "us", MedianUs(kCalls, [&] {
                    auto response = (*channel)->RoundTrip(payload);
                    if (!response.ok() || *response != reference) {
                      errors->push_back("transport probe: answer differs from Handle's");
                    }
                  })});
  out->push_back({"server.handle_us_p50", "us", MedianUs(kCalls, [&] {
                    if (server.Handle(payload) != reference) {
                      errors->push_back("server probe: Handle answer changed");
                    }
                  })});
  out->push_back({"spec.parse_us_p50", "us", MedianUs(kCalls, [&] {
                    CHECK(serve::RequestEnvelope::Parse(payload).ok());
                  })});
  out->push_back({"spec.canonicalize_us_p50", "us", MedianUs(kCalls, [&] {
                    CHECK(envelope->request.CanonicalKey() == key);
                  })});
  std::string value;
  out->push_back({"cache.hit_us_p50", "us", MedianUs(kCalls, [&] {
                    if (!server.cache().TryGet(key, &value)) {
                      errors->push_back("cache probe: warm key missed");
                    }
                  })});
  channel->reset();
  transport.Stop();
  server.Drain();
}

// ---------------------------------------------------------------------------
// engine: the engine_cold shapes, then the analysis and lifecycle engines directly.

void ProbeEngine(uint64_t seed, std::vector<Metric>* out, std::vector<std::string>* errors) {
  probcon::ScopedThreadPool pool(kEngineColdPool);
  constexpr int kRounds = 9;
  std::vector<std::vector<double>> times(kColdShapeCount);
  for (int round = 0; round < kRounds; ++round) {
    for (int s = 0; s < kColdShapeCount; ++s) {
      const serve::ServeRequest request =
          Parsed(ColdRequestOfShape(seed ^ 0x9B0BE, round, static_cast<ColdShape>(s)));
      const auto start = Clock::now();
      if (!serve::ExecuteRequest(request, nullptr).ok()) {
        errors->push_back(std::string("engine probe: ") +
                          ColdShapeName(static_cast<ColdShape>(s)) + " failed");
      }
      times[s].push_back(1e3 * SecondsBetween(start, Clock::now()));
    }
  }
  for (int s = 0; s < kColdShapeCount; ++s) {
    out->push_back({std::string("engine.execute_ms_p50.") +
                        ColdShapeName(static_cast<ColdShape>(s)),
                    "ms", Median(times[s])});
  }

  // Analysis: exact enumeration (2^16 configurations) and Monte Carlo (the montecarlo
  // shape's 15 nodes and 2e5 trials), on the montecarlo shape's probabilities.
  const serve::ServeRequest mc = Parsed(ColdRequestOfShape(seed, 0, ColdShape::kMonteCarlo));
  std::vector<double> probabilities = mc.fault.probabilities;
  const auto analyzer15 = probcon::ReliabilityAnalyzer::ForIndependentNodes(probabilities);
  probabilities.push_back(probabilities.front());
  const auto analyzer16 = probcon::ReliabilityAnalyzer::ForIndependentNodes(probabilities);
  std::atomic<uint64_t> configs{0};
  const double enum_us = MedianUs(3, [&] {
    configs = 0;
    CHECK(analyzer16
              .TryEventProbability(probcon::MakeRaftLivePredicate(probcon::RaftConfig::Standard(16)),
                                   probcon::AnalysisMethod::kExact, nullptr, &configs)
              .ok());
  });
  out->push_back({"analysis.enum_ns_per_config", "ns",
                  1e3 * enum_us / static_cast<double>(std::max<uint64_t>(configs, 1))});
  probcon::MonteCarloOptions mc_options;
  mc_options.trials = mc.trials;
  mc_options.seed = mc.seed;
  const double mc_us = MedianUs(3, [&] {
    CHECK(analyzer15
              .TryEstimateEventProbability(
                  probcon::MakeRaftLivePredicate(probcon::RaftConfig::Standard(15)), mc_options)
              .ok());
  });
  out->push_back({"analysis.mc_ns_per_trial", "ns",
                  1e3 * mc_us / static_cast<double>(mc_options.trials)});

  // Lifecycle: the mission shape's fleet (3 classes x 4 nodes, 125 states).
  const serve::ServeRequest mission = Parsed(ColdRequestOfShape(seed, 0, ColdShape::kMission));
  std::unique_ptr<probcon::FleetModel> model;
  const double assemble_us = MedianUs(5, [&] {
    model = std::make_unique<probcon::FleetModel>(mission.fleet, probcon::FleetProtocol::kRaft);
  });
  probcon::CtmcSolveOptions solve;
  std::atomic<uint64_t> terms{0};
  const double steady_us =
      MedianUs(5, [&] { CHECK(model->TrySteadyStateAvailability(false, solve).ok()); });
  const double mttu_us =
      MedianUs(5, [&] { CHECK(model->TryMeanTimeToUnavailability(false, solve).ok()); });
  const double mission_us = MedianUs(5, [&] {
    terms = 0;
    probcon::CtmcSolveOptions counted;
    counted.progress = &terms;
    CHECK(model->TryMissionReliability(mission.mission_hours, false, counted).ok());
  });
  out->push_back({"lifecycle.assemble_ms", "ms", assemble_us / 1e3});
  out->push_back({"lifecycle.steady_ms", "ms", steady_us / 1e3});
  out->push_back({"lifecycle.mttu_ms", "ms", mttu_us / 1e3});
  out->push_back({"lifecycle.mission_ms", "ms", mission_us / 1e3});
  out->push_back({"lifecycle.states", "count", static_cast<double>(model->state_count())});
  out->push_back({"lifecycle.uniformization_terms", "count", static_cast<double>(terms)});
}

// ---------------------------------------------------------------------------
// chaos: generator, inline execution, own replays, and pooled campaign speedup.

struct Replay {
  uint64_t events = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t committed = 0;
  uint64_t elections = 0;
};

// Replays `plan` the way ExecuteChaosPlan does, on the benchmark's own cluster, and reads
// the simulator, network and trace counters that the fuzz report does not expose.
template <typename Cluster, typename Options>
Replay ReplayOn(Options options, const probcon::ChaosPlan& plan, bool raft,
                double settle_time) {
  options.seed = plan.seed;
  Cluster cluster(options);
  probcon::TraceLog trace;
  probcon::MetricsRegistry metrics;
  cluster.simulator().AttachTracer(&trace, &metrics);
  probcon::Nemesis nemesis(&cluster.simulator(), &cluster.network(), cluster.processes());
  CHECK(nemesis.Arm(plan).ok());
  cluster.Start();
  cluster.RunUntil(plan.horizon + settle_time);
  Replay replay;
  replay.events = cluster.simulator().executed_events();
  replay.sent = cluster.network().messages_sent();
  replay.delivered = cluster.network().messages_delivered();
  replay.committed = cluster.checker().committed_slots();
  replay.elections = trace.CountOf(raft ? probcon::TraceEventType::kElectionStarted
                                      : probcon::TraceEventType::kViewChangeStarted);
  return replay;
}

void ProbeChaos(uint64_t seed, std::vector<Metric>* out, std::vector<std::string>* errors) {
  constexpr int kPlansPerProtocol = 4;
  struct Sample {
    bool pbft = false;
    probcon::ChaosPlan plan;
  };
  std::vector<Sample> samples;
  std::vector<double> generate_us;
  for (const bool pbft : {false, true}) {
    const probcon::ChaosPlanGenerator generator(ChaosGeneratorOptions(pbft));
    const uint64_t root = CampaignSeed(seed, 0, pbft);
    generate_us.push_back(MedianUs(200, [&] { generator.Generate(root, 99); }));
    for (int i = 0; i < kPlansPerProtocol; ++i) samples.push_back({pbft, generator.Generate(root, i)});
  }
  out->push_back({"chaos.generate_us_per_plan", "us", Median(generate_us)});

  double execute_ms = 0.0;
  double replay_s = 0.0;
  Replay total;
  uint64_t stalls = 0;
  std::vector<double> recovery;
  for (const Sample& sample : samples) {
    const probcon::ChaosRunOptions run = ChaosRunOptionsFor(sample.pbft);
    auto start = Clock::now();
    auto result = probcon::ExecuteChaosPlan(sample.plan, run);
    execute_ms += 1e3 * SecondsBetween(start, Clock::now());
    CHECK(result.ok()) << result.status().ToString();

    start = Clock::now();
    Replay replay;
    if (sample.pbft) {
      probcon::PbftClusterOptions options;
      options.config = probcon::PbftConfig::Standard(run.node_count);
      replay = ReplayOn<probcon::PbftCluster>(options, sample.plan, false, run.settle_time);
    } else {
      probcon::RaftClusterOptions options;
      options.config = probcon::RaftConfig::Standard(run.node_count);
      replay = ReplayOn<probcon::RaftCluster>(options, sample.plan, true, run.settle_time);
    }
    replay_s += SecondsBetween(start, Clock::now());
    if (!result->safety_ok || replay.committed != result->committed_slots) {
      errors->push_back("chaos probe: replay of plan seed " + std::to_string(sample.plan.seed) +
                        " committed " + std::to_string(replay.committed) + " slots, fuzz run " +
                        std::to_string(result->committed_slots) + (result->safety_ok ? "" : ", unsafe"));
    }
    total.events += replay.events;
    total.sent += replay.sent;
    total.delivered += replay.delivered;
    total.committed += replay.committed;
    total.elections += replay.elections;
    if (result->progress_after_chaos) {
      recovery.push_back(result->recovery_time);
    } else {
      ++stalls;
    }
  }
  const double plans = static_cast<double>(samples.size());
  out->push_back({"chaos.execute_ms_per_plan", "ms", execute_ms / plans});
  out->push_back({"sim.events_per_plan", "count", static_cast<double>(total.events) / plans});
  out->push_back({"sim.messages_per_plan", "count", static_cast<double>(total.sent) / plans});
  out->push_back({"sim.delivered_ratio", "ratio",
                  Ratio(static_cast<double>(total.delivered), static_cast<double>(total.sent))});
  out->push_back({"sim.events_per_s", "1/s", static_cast<double>(total.events) / replay_s});
  out->push_back({"consensus.commits_per_plan", "count",
                  static_cast<double>(total.committed) / plans});
  out->push_back({"consensus.elections_per_plan", "count",
                  static_cast<double>(total.elections) / plans});
  out->push_back({"consensus.recovery_sim_ms_p50", "ms", Median(recovery)});
  out->push_back({"consensus.liveness_stalls", "count", static_cast<double>(stalls)});

  // exec: one Raft campaign inline (0 workers) and on a pool.
  double plans_per_s[2] = {0.0, 0.0};
  int stalls_seen[2] = {0, 0};
  for (const int workers : {0, kCampaignSpeedupPool}) {
    probcon::ThreadPool campaign_pool(workers);
    const probcon::FuzzCampaignOptions options =
        ChaosCampaignOptions(false, CampaignSeed(seed, 1, false), kChaosPlansPerCampaign,
                             &campaign_pool);
    const auto start = Clock::now();
    auto report = probcon::RunFuzzCampaign(options);
    const double wall = SecondsBetween(start, Clock::now());
    CHECK(report.ok()) << report.status().ToString();
    if (report->safety_violations != 0 || report->plans_run != options.plan_count) {
      errors->push_back("chaos probe: " + report->Describe());
    }
    plans_per_s[workers == 0 ? 0 : 1] = report->plans_run / wall;
    stalls_seen[workers == 0 ? 0 : 1] = report->liveness_stalls;
  }
  if (stalls_seen[0] != stalls_seen[1]) {
    errors->push_back("chaos probe: pooled and inline campaigns disagree");
  }
  out->push_back({"exec.campaign_speedup", "ratio", Ratio(plans_per_s[1], plans_per_s[0])});
}

}  // namespace

bool RunLayerProbes(uint64_t seed, std::vector<Metric>* out, std::vector<std::string>* errors) {
  const size_t before = errors->size();
  ProbeServe(seed, out, errors);
  ProbeEngine(seed, out, errors);
  ProbeChaos(seed, out, errors);
  return errors->size() == before;
}

}  // namespace perfbench
