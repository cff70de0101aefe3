// Unit tests of the benchmark's own helpers: percentile selection, the
// derived-metric arithmetic, the replay accounting of the traced loop, the
// correctness gate, input seeding, and agreement between the metric
// schema, the workloads and BENCHMARK.json.

#include "report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(HighestSupportedPercentile, KeepsTenSamplesBeyond) {
  // 1000 samples: p99 (rank 990) leaves 10 beyond; p99.9 would leave 1.
  const TopPercentile top = HighestSupportedPercentile(OneToN(1000));
  EXPECT_DOUBLE_EQ(top.percent, 99.0);
  EXPECT_DOUBLE_EQ(top.value, 990.0);
  EXPECT_EQ(top.beyond, 10);
  EXPECT_EQ(top.samples, 1000);
}

TEST(HighestSupportedPercentile, StopsOneShortOfTen) {
  // 999 samples: p99 is rank 990 with only 9 beyond, so p90 is the top.
  const TopPercentile top = HighestSupportedPercentile(OneToN(999));
  EXPECT_DOUBLE_EQ(top.percent, 90.0);
  EXPECT_DOUBLE_EQ(top.value, 900.0);
  EXPECT_EQ(top.beyond, 99);
}

TEST(HighestSupportedPercentile, ReachesDeepTails) {
  const TopPercentile top = HighestSupportedPercentile(OneToN(100000));
  EXPECT_DOUBLE_EQ(top.percent, 99.99);
  EXPECT_DOUBLE_EQ(top.value, 99990.0);
  EXPECT_EQ(top.beyond, 10);
}

TEST(HighestSupportedPercentile, TooFewSamplesReportsNone) {
  // 19 samples: the median (rank 10) leaves only 9 beyond.
  const TopPercentile top = HighestSupportedPercentile(OneToN(19));
  EXPECT_DOUBLE_EQ(top.percent, 0.0);
  EXPECT_DOUBLE_EQ(top.value, 0.0);
  EXPECT_EQ(HighestSupportedPercentile({}).samples, 0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(OneToN(20)).percent, 50.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(UncertifiedFrac, CountsOneCheckPerCadence) {
  // fgm::Run checks at events check_every, 2*check_every, ...
  EXPECT_EQ(AttemptedChecks(2000000, 1000), 2000);
  EXPECT_EQ(AttemptedChecks(2000999, 1000), 2000);
  EXPECT_DOUBLE_EQ(UncertifiedFrac(2000, 2000000, 1000), 0.0);
  EXPECT_DOUBLE_EQ(UncertifiedFrac(1460000, 2000000, 1), 0.27);
  EXPECT_DOUBLE_EQ(UncertifiedFrac(0, 100, 1), 1.0);
  EXPECT_DOUBLE_EQ(UncertifiedFrac(0, 0, 1), 0.0);
  EXPECT_EQ(AttemptedChecks(100, 0), 0);
}

fgm::TrafficStats Ledger(int64_t up, int64_t down) {
  fgm::TrafficStats t;
  t.upstream_words = up;
  t.downstream_words = down;
  t.words_by_kind[0] = up;
  t.words_by_kind[3] = down;
  return t;
}

fgm::RunResult FlatResult() {
  fgm::RunResult r;
  r.events = 1000;
  r.traffic = Ledger(300, 700);
  r.comm_cost = 1.0;
  return r;
}

TEST(CommCostAllTiers, FlatEqualsCommCost) {
  EXPECT_DOUBLE_EQ(CommCostAllTiers(FlatResult()), 1.0);
}

TEST(CommCostAllTiers, TreeSumsEveryTier) {
  fgm::RunResult r = FlatResult();
  r.tier_traffic = {Ledger(300, 700), Ledger(1000, 500)};
  EXPECT_DOUBLE_EQ(CommCostAllTiers(r), 2.5);
  EXPECT_TRUE(GateFailures(r, 1000).empty());
}

TEST(ReplayedLoopS, RebuildsTheLoopFromReplaysAndUnreplayedSegments) {
  LoopProfile loop;
  loop.fingerprint.events = 1000;
  loop.quiet_calls = 900;
  loop.clock_reads = 3005;
  loop.construct_s = 1e-3;
  loop.sync_s = 2e-3;
  loop.truth_eval_s = 3e-3;
  loop.finish_s = 4e-3;
  // The replayed segments must not enter the sum.
  loop.stream_s = loop.quiet_s = loop.truth_map_s = 100.0;
  LayerTimes layers;
  layers.stream_next_ns = 10.0;
  layers.map_ns = 100.0;
  layers.site_process_ns = 200.0;
  layers.clock_ns = 20.0;
  // 1001 Next + 1000 maps + 900 quiet site calls + 3005 clock reads.
  const double replayed_ns = 1001 * 10.0 + 1000 * 100.0 + 900 * 200.0 +
                             3005 * 20.0;
  EXPECT_NEAR(ReplayedLoopS(loop, layers), replayed_ns * 1e-9 + 10e-3,
              1e-15);
}

TEST(GateFailures, PassesACleanRun) {
  EXPECT_TRUE(GateFailures(FlatResult(), 1000).empty());
}

TEST(GateFailures, FlagsEachBrokenCondition) {
  fgm::RunResult overshoot = FlatResult();
  overshoot.max_violation = 1e-9;
  EXPECT_EQ(GateFailures(overshoot, 1000).size(), 1u);

  EXPECT_EQ(GateFailures(FlatResult(), 999).size(), 1u);

  fgm::RunResult ledger = FlatResult();
  ledger.traffic.words_by_kind[5] = 1;
  EXPECT_EQ(GateFailures(ledger, 1000).size(), 1u);

  // A tree whose tiers carry fewer words than its root.
  fgm::RunResult tree = FlatResult();
  tree.tier_traffic = {Ledger(100, 100)};
  EXPECT_EQ(GateFailures(tree, 1000).size(), 1u);

  fgm::RunResult stopped = FlatResult();
  stopped.stopped_early = true;
  EXPECT_EQ(GateFailures(stopped, 1000).size(), 1u);
}

TEST(MetricSet, JsonFollowsSchemaOrder) {
  MetricSet m(EndToEndMetrics());
  for (const MetricSpec& spec : EndToEndMetrics()) m.Set(spec.name, 1.5);
  EXPECT_TRUE(m.Missing().empty());
  const std::string line = ResultLine(true, 3, 0, m);
  fgm::JsonNode root;
  std::string error;
  ASSERT_TRUE(fgm::ParseJson(line, &root, &error)) << error;
  ASSERT_EQ(root.members.size(), 4u);
  EXPECT_EQ(root.members[0].first, "correct");
  EXPECT_EQ(root.Find("attempted")->AsInt(), 3);
  const fgm::JsonNode* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->members.size(), EndToEndMetrics().size());
  EXPECT_EQ(metrics->members[0].first, "events_per_s");
  EXPECT_DOUBLE_EQ(metrics->members[0].second.Find("value")->AsDouble(), 1.5);
  EXPECT_EQ(metrics->members[0].second.Find("unit")->str, "events/s");
}

TEST(MetricSet, ReportsWhatIsMissing) {
  MetricSet m(EndToEndMetrics());
  m.Set("setup_s", 0.1);
  EXPECT_EQ(m.Missing().size(), EndToEndMetrics().size() - 1);
  EXPECT_DEATH(m.Set("no_such_metric", 1.0), "not in the schema");
}

std::vector<MetricSpec> SpecSection(const fgm::JsonNode& root,
                                    const char* key) {
  std::vector<MetricSpec> out;
  const fgm::JsonNode* section = root.Find(key);
  if (section == nullptr) return out;
  for (const fgm::JsonNode& item : section->items) {
    out.push_back({item.Find("name")->str, item.Find("unit")->str});
  }
  return out;
}

void ExpectSameMetrics(const std::vector<MetricSpec>& printed,
                       const std::vector<MetricSpec>& declared) {
  ASSERT_EQ(printed.size(), declared.size());
  for (size_t i = 0; i < printed.size(); ++i) {
    EXPECT_EQ(printed[i].name, declared[i].name);
    EXPECT_EQ(printed[i].unit, declared[i].unit) << printed[i].name;
  }
}

fgm::JsonNode LoadSpec() {
  std::ifstream in(PERFBENCH_SPEC);
  EXPECT_TRUE(in.good()) << PERFBENCH_SPEC;
  std::stringstream text;
  text << in.rdbuf();
  fgm::JsonNode root;
  std::string error;
  EXPECT_TRUE(fgm::ParseJson(text.str(), &root, &error)) << error;
  return root;
}

TEST(Schema, MatchesBenchmarkJson) {
  const fgm::JsonNode root = LoadSpec();
  ExpectSameMetrics(EndToEndMetrics(), SpecSection(root, "end_to_end"));
  ExpectSameMetrics(PerLayerMetrics(), SpecSection(root, "per_layer"));

  std::set<std::string> names;
  for (const auto* schema : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *schema) {
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    }
  }
}

TEST(Schema, WorkloadsMatchBenchmarkJson) {
  const fgm::JsonNode root = LoadSpec();
  const fgm::JsonNode* workloads = root.Find("workloads");
  ASSERT_NE(workloads, nullptr);
  EXPECT_EQ(workloads->items.size(), 3u);
  for (const fgm::JsonNode& item : workloads->items) {
    Workload w;
    EXPECT_TRUE(MakeWorkload(item.Find("name")->str, &w))
        << item.Find("name")->str;
  }
  Workload unknown;
  EXPECT_FALSE(MakeWorkload("no-such-workload", &unknown));
}

TEST(MakeInput, SeedsTraceAndNetworkPerInput) {
  Workload flat;
  ASSERT_TRUE(MakeWorkload("wc-q1-window", &flat));
  const Input a = MakeInput(flat, 7, 0);
  EXPECT_EQ(a.trace.seed, MakeInput(flat, 7, 0).trace.seed);
  EXPECT_NE(a.trace.seed, MakeInput(flat, 7, 1).trace.seed);
  EXPECT_NE(a.trace.seed, MakeInput(flat, 8, 0).trace.seed);
  EXPECT_FALSE(a.run.net.enabled());

  Workload chaos;
  ASSERT_TRUE(MakeWorkload("wc-q1-tree-chaos", &chaos));
  const Input c = MakeInput(chaos, 7, 1);
  EXPECT_EQ(c.run.net.seed, c.trace.seed);
  EXPECT_EQ(c.trace.sites, 256);
  EXPECT_EQ(c.run.width, 28);
}

}  // namespace
}  // namespace perfbench
