// Metric schema, summary statistics, derived-metric arithmetic and the
// correctness gate of the benchmark. Everything here is pure, so
// report_test.cc covers it without running a workload.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/runner.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Metrics printed with `--trace 0`, in BENCHMARK.json "end_to_end" order.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Metrics printed with `--trace 1`, in BENCHMARK.json "per_layer" order.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Values for one schema. Every schema metric must be set before Json():
/// a run that forgot one fails loudly instead of printing a short line.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricSpec>& schema);

  /// Sets a schema metric; aborts on a name outside the schema.
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;

  /// Names of schema metrics not yet set.
  std::vector<std::string> Missing() const;

  /// {"<name>": {"value": v, "unit": "<unit>"}, ...} in schema order.
  std::string Json() const;

  /// One "name  value unit" line per metric, for humans.
  std::string Table() const;

 private:
  const std::vector<MetricSpec>& schema_;
  std::map<std::string, double> values_;
};

/// The benchmark's last stdout line.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics);

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
double Median(std::vector<double> values);

/// A nearest-rank percentile together with its support.
struct TopPercentile {
  double percent = 0.0;  ///< 0 when no percentile has enough support
  double value = 0.0;
  int64_t beyond = 0;    ///< samples strictly above the percentile's rank
  int64_t samples = 0;
};

/// The highest of p50, p90, p99, p99.9, ... (nearest rank) that leaves at
/// least `min_beyond` samples beyond it.
TopPercentile HighestSupportedPercentile(std::vector<double> samples,
                                         int64_t min_beyond = 10);

/// Checks the guarantee was attempted at: one per `check_every` events, the
/// cadence of fgm::Run's verification.
int64_t AttemptedChecks(int64_t events, int64_t check_every);

/// 1 - certified / attempted checks: the share of check instants at which
/// the protocol could not vouch for its thresholds (blind time).
double UncertifiedFrac(int64_t certified_checks, int64_t events,
                       int64_t check_every);

/// Words over every link tier per event. Flat runs have one tier, so this
/// equals RunResult::comm_cost.
double CommCostAllTiers(const fgm::RunResult& result);

/// What the traced and untraced paths must agree on exactly.
struct Fingerprint {
  int64_t events = 0;
  int64_t rounds = 0;
  int64_t subrounds = 0;
  int64_t total_words = 0;
  int64_t certified_checks = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

Fingerprint FingerprintOf(const fgm::RunResult& result);

/// True when every field of the two traffic ledgers matches.
bool SameTraffic(const fgm::TrafficStats& a, const fgm::TrafficStats& b);

/// The per-run correctness gate. Returns the failed conditions (empty =
/// pass): certified overshoot must be 0, the event count must equal the
/// trace's inserts plus window deletes, every ledger's words_by_kind must
/// sum to its total, comm_cost_all_tiers must be >= comm_cost, and the run
/// must not have stopped early.
std::vector<std::string> GateFailures(const fgm::RunResult& result,
                                      int64_t expected_events);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
