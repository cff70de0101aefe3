#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "obs/json.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> schema = {
      {"events_per_s", "events/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"comm_cost", "words/event"},
      {"comm_cost_all_tiers", "words/event"},
      {"certified_frac", "fraction"},
  };
  return schema;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> schema = {
      {"stream.next_ns", "ns"},
      {"stream.delete_frac", "fraction"},
      {"sketch.map_ns", "ns"},
      {"sketch.cells_per_event", "cells/event"},
      {"safezone.eval_ns", "ns"},
      {"safezone.build_us", "us"},
      {"core.site_process_ns", "ns"},
      {"core.quiet_ns", "ns"},
      {"core.sync_records", "count"},
      {"core.sync_share", "fraction"},
      {"core.sync_us_p50", "us"},
      {"core.sync_us_ptop", "us"},
      {"core.sync_ptop_pct", "%"},
      {"core.rounds", "count"},
      {"core.subrounds", "count"},
      {"core.rebalances", "count"},
      {"core.overflow_rounds", "count"},
      {"core.full_fn_fraction", "fraction"},
      {"net.words.safe-zone", "words"},
      {"net.words.quantum", "words"},
      {"net.words.lambda", "words"},
      {"net.words.counter", "words"},
      {"net.words.phi-value", "words"},
      {"net.words.drift-flush", "words"},
      {"net.words.control", "words"},
      {"net.words.raw-update", "words"},
      {"net.words.resync", "words"},
      {"net.msgs_per_event", "msgs/event"},
      {"net.upstream_fraction", "fraction"},
      {"net.serialize_overhead_frac", "fraction"},
      {"sim.delivered_msgs", "count"},
      {"sim.dropped_msgs", "count"},
      {"sim.retransmitted_msgs", "count"},
      {"sim.timeouts", "count"},
      {"sim.stale_msgs", "count"},
      {"sim.resyncs", "count"},
      {"sim.max_in_flight_words", "words"},
      {"hier.tier0.up_words", "words"},
      {"hier.tier0.down_words", "words"},
      {"hier.tier1.up_words", "words"},
      {"hier.tier1.down_words", "words"},
      {"hier.local_polls", "count"},
      {"driver.truth_map_ns", "ns"},
      {"driver.truth_share", "fraction"},
      {"driver.truth_eval_ns", "ns"},
      {"driver.certified_checks", "count"},
      {"driver.violating_checks", "count"},
      {"driver.uncertified_frac", "fraction"},
      {"driver.certified_overshoot", "fraction"},
      {"obs.overhead_frac", "fraction"},
      {"obs.alerts_raised", "count"},
      {"obs.alerts_cleared", "count"},
      {"trace.overhead_frac", "fraction"},
      {"trace.accounted_frac", "fraction"},
  };
  return schema;
}

MetricSet::MetricSet(const std::vector<MetricSpec>& schema)
    : schema_(schema) {}

void MetricSet::Set(const std::string& name, double value) {
  const bool known =
      std::any_of(schema_.begin(), schema_.end(),
                  [&](const MetricSpec& m) { return m.name == name; });
  if (!known) {
    std::fprintf(stderr, "perfbench: metric %s is not in the schema\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

bool MetricSet::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::vector<std::string> MetricSet::Missing() const {
  std::vector<std::string> missing;
  for (const MetricSpec& m : schema_) {
    if (!Has(m.name)) missing.push_back(m.name);
  }
  return missing;
}

std::string MetricSet::Json() const {
  fgm::JsonWriter w;
  w.BeginObject();
  for (const MetricSpec& m : schema_) {
    w.Key(m.name);
    w.BeginObject();
    w.Field("value", values_.at(m.name));
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

std::string MetricSet::Table() const {
  std::string out;
  char line[160];
  for (const MetricSpec& m : schema_) {
    const auto it = values_.find(m.name);
    std::snprintf(line, sizeof(line), "  %-30s %18.6g %s\n", m.name.c_str(),
                  it != values_.end() ? it->second : std::nan(""),
                  m.unit.c_str());
    out += line;
  }
  return out;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics) {
  const std::vector<std::string> missing = metrics.Missing();
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: metric %s was never measured\n",
                 missing.front().c_str());
    std::abort();
  }
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) +
         ",\"metrics\":" + metrics.Json() + "}";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

TopPercentile HighestSupportedPercentile(std::vector<double> samples,
                                         int64_t min_beyond) {
  // Parts per million, so nearest-rank arithmetic stays exact in integers.
  static constexpr int64_t kPpm[] = {500000, 900000, 990000, 999000,
                                     999900, 999990, 999999};
  TopPercentile top;
  const int64_t n = static_cast<int64_t>(samples.size());
  top.samples = n;
  std::sort(samples.begin(), samples.end());
  for (const int64_t ppm : kPpm) {
    const int64_t rank = (ppm * n + 999999) / 1000000;  // 1-based
    const int64_t beyond = n - rank;
    if (rank < 1 || beyond < min_beyond) break;
    top.percent = static_cast<double>(ppm) / 10000.0;
    top.value = samples[static_cast<size_t>(rank - 1)];
    top.beyond = beyond;
  }
  return top;
}

int64_t AttemptedChecks(int64_t events, int64_t check_every) {
  return check_every > 0 ? events / check_every : 0;
}

double UncertifiedFrac(int64_t certified_checks, int64_t events,
                       int64_t check_every) {
  const int64_t attempted = AttemptedChecks(events, check_every);
  if (attempted == 0) return 0.0;
  return 1.0 - static_cast<double>(certified_checks) /
                   static_cast<double>(attempted);
}

double CommCostAllTiers(const fgm::RunResult& result) {
  if (result.tier_traffic.empty()) return result.comm_cost;
  if (result.events == 0) return 0.0;
  int64_t words = 0;
  for (const fgm::TrafficStats& t : result.tier_traffic) {
    words += t.total_words();
  }
  return static_cast<double>(words) / static_cast<double>(result.events);
}

std::string Fingerprint::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "events=%lld rounds=%lld subrounds=%lld words=%lld "
                "certified_checks=%lld",
                static_cast<long long>(events),
                static_cast<long long>(rounds),
                static_cast<long long>(subrounds),
                static_cast<long long>(total_words),
                static_cast<long long>(certified_checks));
  return buf;
}

Fingerprint FingerprintOf(const fgm::RunResult& result) {
  Fingerprint f;
  f.events = result.events;
  f.rounds = result.rounds;
  f.subrounds = result.subrounds;
  f.total_words = result.traffic.total_words();
  f.certified_checks = result.checks;
  return f;
}

bool SameTraffic(const fgm::TrafficStats& a, const fgm::TrafficStats& b) {
  return a.upstream_words == b.upstream_words &&
         a.downstream_words == b.downstream_words &&
         a.upstream_messages == b.upstream_messages &&
         a.downstream_messages == b.downstream_messages &&
         a.words_by_kind == b.words_by_kind;
}

std::vector<std::string> GateFailures(const fgm::RunResult& result,
                                      int64_t expected_events) {
  std::vector<std::string> failures;
  char buf[200];
  if (result.max_violation != 0.0) {
    std::snprintf(buf, sizeof(buf), "certified overshoot %.6g of the margin",
                  result.max_violation);
    failures.push_back(buf);
  }
  if (result.events != expected_events) {
    std::snprintf(buf, sizeof(buf), "%lld events, expected %lld",
                  static_cast<long long>(result.events),
                  static_cast<long long>(expected_events));
    failures.push_back(buf);
  }
  auto check_ledger = [&](const fgm::TrafficStats& t, const char* what) {
    const int64_t by_kind = std::accumulate(t.words_by_kind.begin(),
                                            t.words_by_kind.end(), int64_t{0});
    if (by_kind != t.total_words()) {
      std::snprintf(buf, sizeof(buf),
                    "%s: words_by_kind sums to %lld, total is %lld", what,
                    static_cast<long long>(by_kind),
                    static_cast<long long>(t.total_words()));
      failures.push_back(buf);
    }
  };
  check_ledger(result.traffic, "traffic");
  for (size_t t = 0; t < result.tier_traffic.size(); ++t) {
    check_ledger(result.tier_traffic[t],
                 ("tier " + std::to_string(t)).c_str());
  }
  if (!(CommCostAllTiers(result) >= result.comm_cost)) {
    std::snprintf(buf, sizeof(buf),
                  "comm_cost_all_tiers %.6g < comm_cost %.6g",
                  CommCostAllTiers(result), result.comm_cost);
    failures.push_back(buf);
  }
  if (result.stopped_early) failures.push_back("run stopped early");
  return failures;
}

}  // namespace perfbench
