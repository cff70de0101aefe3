#include "workloads.h"

namespace perfbench {
namespace {

// The paper-scaling rules of bench/bench_common.h, pinned here so the
// benchmark's inputs cannot move when the figure benches are retuned: the
// paper's day has 50.3M updates, sketch dimension D scales with the trace
// length, and every sketch has depth 5.
constexpr double kPaperUpdates = 50.3e6;
constexpr int kSketchDepth = 5;

double Sigma(int64_t updates) {
  return static_cast<double>(updates) / kPaperUpdates;
}

int WidthForPaperD(double paper_d, int64_t updates) {
  const int width =
      static_cast<int>(paper_d * Sigma(updates) / kSketchDepth + 0.5);
  return width < 8 ? 8 : width;
}

fgm::WorldCupConfig PaperTrace(int sites, int64_t updates) {
  fgm::WorldCupConfig config;
  config.sites = sites;
  config.total_updates = updates;
  config.duration = 86400.0;
  config.distinct_clients =
      static_cast<uint64_t>(40000.0 * Sigma(updates) * 50.0) + 10000;
  return config;
}

fgm::RunConfig SketchRun(fgm::ProtocolKind protocol, fgm::QueryKind query,
                         int sites, double paper_d, int64_t updates,
                         double epsilon, double window_seconds,
                         int64_t check_every) {
  fgm::RunConfig config;
  config.protocol = protocol;
  config.query = query;
  config.sites = sites;
  config.depth = kSketchDepth;
  config.width = WidthForPaperD(paper_d, updates);
  config.epsilon = epsilon;
  config.window_seconds = window_seconds;
  config.check_every = check_every;
  return config;
}

}  // namespace

bool MakeWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "wc-q1-window") {
    // Quiet regime: the per-event site path dominates.
    constexpr int64_t kUpdates = 2000000;
    w.trace = PaperTrace(27, kUpdates);
    w.run = SketchRun(fgm::ProtocolKind::kFgm, fgm::QueryKind::kSelfJoin, 27,
                      7000, kUpdates, 0.1, 4 * 3600.0, 1000);
    w.inputs_per_run = 10;
  } else if (name == "wc-q2-adverse") {
    // The Fig-4 adverse regime: tens of thousands of subrounds and
    // rebalances, so coordinator, optimizer and transport dominate.
    constexpr int64_t kUpdates = 1000000;
    w.trace = PaperTrace(27, kUpdates);
    w.run = SketchRun(fgm::ProtocolKind::kFgmOpt, fgm::QueryKind::kJoin, 27,
                      35000, kUpdates, 0.04, 3600.0, 1000);
    w.telemetry = true;
    w.inputs_per_run = 6;
  } else if (name == "wc-q1-tree-chaos") {
    // 256 leaves under 16 aggregators over a lossy, crashing network,
    // with the guarantee checked at every event.
    constexpr int64_t kUpdates = 1000000;
    constexpr int kLeaves = 256;
    w.trace = PaperTrace(kLeaves, kUpdates);
    w.run = SketchRun(fgm::ProtocolKind::kFgm, fgm::QueryKind::kSelfJoin,
                      kLeaves, 7000, kUpdates, 0.1, 4 * 3600.0, 1);
    w.run.topology = "tree:16";
    w.run.net.latency = "uniform:1-16";
    w.run.net.drop = 0.1;
    // Site 3 addresses a tier-1 aggregator: its whole subtree goes dark.
    w.run.net.fault_plan = "crash:site=3,at=500000,rejoin=520000";
    w.telemetry = true;
    w.inputs_per_run = 6;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

Input MakeInput(const Workload& w, uint64_t run_seed, int index) {
  // Wraps for huge run seeds, which keeps the mapping deterministic.
  constexpr uint64_t kMaxInputs = 16;
  Input in;
  in.seed = run_seed * kMaxInputs + static_cast<uint64_t>(index);
  in.trace = w.trace;
  in.trace.seed = in.seed;
  in.run = w.run;
  if (in.run.net.enabled()) in.run.net.seed = in.seed;
  return in;
}

fgm::RunConfig WithSinks(const fgm::RunConfig& config, bool telemetry,
                         Sinks* sinks) {
  fgm::RunConfig out = config;
  sinks->metrics.reset();
  sinks->health.reset();
  if (telemetry) {
    sinks->metrics = std::make_unique<fgm::MetricsRegistry>();
    sinks->health = std::make_unique<fgm::HealthMonitor>(config.sites);
    out.metrics = sinks->metrics.get();
    out.health = sinks->health.get();
  }
  return out;
}

}  // namespace perfbench
