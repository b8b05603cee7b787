// E9 — The storage-community metrics the paper says consensus should adopt (§2): MTTF / MTTDL
// / steady-state availability from Markov repair models, computed for consensus clusters.
// Each cluster is a single-class FleetModel: the birth-death chain over failed-node counts,
// with per-node repair (one repair server per node).
//
// Mirrors Zorfu's "mean time to more than f failures" analysis and the RAID MTTDL
// calculations (Patterson et al.) the paper cites, with lambda taken from AFR-style fault
// curves and a configurable repair rate mu.

#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "src/faultmodel/afr.h"
#include "src/lifecycle/fleet_model.h"

namespace probcon {
namespace {

std::string Hours(double h) {
  char buffer[48];
  if (h > 24.0 * 365.25 * 1000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.3g years", h / (24.0 * 365.25));
  } else if (h > 24.0 * 365.25) {
    std::snprintf(buffer, sizeof(buffer), "%.1f years", h / (24.0 * 365.25));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f days", h / 24.0);
  }
  return buffer;
}

// Raft cluster of n nodes failing at `lambda`, each repaired independently at `mu`.
FleetModel RaftCluster(int n, double lambda, double mu) {
  FleetParams params;
  params.classes = {{.count = n, .failure_rate = lambda}};
  params.repair_rate = mu;
  params.repair_servers = n;
  return FleetModel(std::move(params), FleetProtocol::kRaft);
}

void Run() {
  bench::PrintBanner("E9", "MTTF / MTTDL / availability for consensus clusters with repair");

  // lambda from a 4% AFR (the paper's "traditional server faults" figure); repair in 12h.
  const double lambda = RateFromAfr(0.04);
  const double mu = 1.0 / 12.0;

  bench::Table table({"cluster", "MTTU (liveness outage)", "MTT all-replicas-down",
                      "steady-state availability"});
  for (const int n : {3, 5, 7, 9}) {
    const FleetModel model = RaftCluster(n, lambda, mu);
    const auto mttu = model.TryMeanTimeToUnavailability(false, {});
    const auto wipe = model.TryMeanTimeToQuorumLoss(n, {});
    const auto availability = model.TrySteadyStateAvailability(false, {});
    table.AddRow({"raft n=" + std::to_string(n), mttu.ok() ? Hours(*mttu) : "-",
                  wipe.ok() ? Hours(*wipe) : "-",
                  availability.ok() ? FormatPercent(*availability) : "-"});
  }
  table.Print();

  std::printf("\nrepair-rate sensitivity (n=5, quorum=3, AFR=4%%):\n");
  bench::Table sensitivity({"repair time", "MTTU", "availability"});
  for (const double hours : {1.0, 12.0, 72.0, 24.0 * 30}) {
    const FleetModel model = RaftCluster(5, lambda, 1.0 / hours);
    const auto mttu = model.TryMeanTimeToUnavailability(false, {});
    const auto availability = model.TrySteadyStateAvailability(false, {});
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f h", hours);
    sensitivity.AddRow({label, mttu.ok() ? Hours(*mttu) : "-",
                        availability.ok() ? FormatPercent(*availability) : "-"});
  }
  sensitivity.Print();

  std::printf("\nmission-window risk, n=5 AFR=4%% repair=12h (transient analysis):\n");
  bench::Table transient({"mission", "P(liveness outage within mission)"});
  const FleetModel model = RaftCluster(5, lambda, 1.0 / 12.0);
  for (const double days : {30.0, 90.0, 365.25, 3 * 365.25}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f days", days);
    const auto reliability = model.TryMissionReliability(days * 24.0, false, {});
    char risk[32] = "-";
    if (reliability.ok()) {
      std::snprintf(risk, sizeof(risk), "%.3g", reliability->complement());
    }
    transient.AddRow({label, risk});
  }
  transient.Print();
  std::printf(
      "\nshape check: MTTU grows steeply with cluster size and repair speed — the 'expected\n"
      "time until something bad happens' framing the paper imports from storage.\n");
}

}  // namespace
}  // namespace probcon

int main() {
  probcon::Run();
  return 0;
}
