// The benchmark's workloads: seeded WorldCup-like traces plus the run
// configuration each is monitored under. Why each workload exists is in
// README.md next to this file.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "driver/runner.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "stream/record.h"
#include "stream/worldcup.h"

namespace perfbench {

struct Workload {
  std::string name;
  fgm::WorldCupConfig trace;  ///< generator input (seed set per input)
  fgm::RunConfig run;         ///< protocol config, no sinks attached
  /// Always-on telemetry: a fresh MetricsRegistry and HealthMonitor are
  /// attached as caller sinks to every run (no file outputs).
  bool telemetry = false;
  /// Distinct seeded traces one benchmark run goes through, sized so one
  /// pass takes most of the run. Pooling over several inputs keeps one
  /// trace's luck (its round count, its comm.cost) from deciding the run's
  /// figures.
  int inputs_per_run = 1;
};

/// One seeded input of a workload: the trace to generate and the config
/// to run it under (the simulated network, if any, shares the seed).
struct Input {
  uint64_t seed = 0;
  fgm::WorldCupConfig trace;
  fgm::RunConfig run;
};

/// Builds the named workload. Returns false on an unknown name.
bool MakeWorkload(const std::string& name, Workload* out);

/// Input `index` (in [0, inputs_per_run)) of the benchmark run seeded
/// with `run_seed`. Distinct pairs get distinct seeds for run seeds below
/// 2^60.
Input MakeInput(const Workload& w, uint64_t run_seed, int index);

/// Per-run telemetry sinks; empty when the workload has none.
struct Sinks {
  std::unique_ptr<fgm::MetricsRegistry> metrics;
  std::unique_ptr<fgm::HealthMonitor> health;
};

/// `config` with fresh sinks attached when `telemetry` is set; `sinks`
/// owns them and must outlive the run.
fgm::RunConfig WithSinks(const fgm::RunConfig& config, bool telemetry,
                         Sinks* sinks);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
