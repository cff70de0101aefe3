// The driver's record path: every event is mapped through the query's
// projection once, and the protocol and the ground truth share the cells.
// These tests pin that the cells-taking ProcessRecord leaves exactly the
// state the one-argument (self-mapping) entry point leaves, and that Run
// reproduces a reference loop that maps every record twice.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "stream/window.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

constexpr int64_t kUpdates = 30000;

std::vector<StreamRecord> SeededTrace(int sites) {
  WorldCupConfig config;
  config.sites = sites;
  config.total_updates = kUpdates;
  config.duration = 10000.0;
  config.distinct_clients = 2000;
  config.seed = 20191015;
  return GenerateWorldCupTrace(config);
}

RunConfig BaseRun(ProtocolKind protocol, QueryKind query, int sites) {
  RunConfig config;
  config.protocol = protocol;
  config.query = query;
  config.sites = sites;
  config.depth = 5;
  config.width = 60;
  config.epsilon = 0.1;
  config.window_seconds = 1500.0;
  config.check_every = 1;
  return config;
}

/// The tree chaos run: 16 leaves under tree:4 over a lossy, crashing
/// simulated network (site 1 addresses a tier-1 aggregator).
RunConfig TreeChaosRun() {
  RunConfig config = BaseRun(ProtocolKind::kFgm, QueryKind::kSelfJoin, 16);
  config.window_seconds = 0.0;
  config.topology = "tree:4";
  config.net.latency = "uniform:1-16";
  config.net.drop = 0.2;
  config.net.fault_plan = "crash:site=1,at=20000,rejoin=26000";
  return config;
}

void ExpectSameTraffic(const TrafficStats& a, const TrafficStats& b) {
  EXPECT_EQ(a.upstream_words, b.upstream_words);
  EXPECT_EQ(a.downstream_words, b.downstream_words);
  EXPECT_EQ(a.upstream_messages, b.upstream_messages);
  EXPECT_EQ(a.downstream_messages, b.downstream_messages);
  EXPECT_EQ(a.words_by_kind, b.words_by_kind);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Feeds the same event stream to two protocols built from `config`: one
/// through ProcessRecord(record), one through ProcessRecord(record, cells)
/// with the cells mapped here. Their state must match bit for bit.
void ExpectEntryPointsAgree(const RunConfig& config,
                            const std::vector<StreamRecord>& trace) {
  const std::unique_ptr<ContinuousQuery> query = MakeQuery(config);
  const std::unique_ptr<MonitoringProtocol> self_mapping =
      MakeProtocol(config, query.get());
  const std::unique_ptr<MonitoringProtocol> given_cells =
      MakeProtocol(config, query.get());

  SlidingWindowStream events(&trace, config.window_seconds);
  std::vector<CellUpdate> cells;
  int64_t n = 0;
  while (const StreamRecord* rec = events.Next()) {
    self_mapping->ProcessRecord(*rec);
    cells.clear();
    query->MapRecord(*rec, &cells);
    given_cells->ProcessRecord(*rec, cells);
    ++n;
  }
  self_mapping->Finish();
  given_cells->Finish();
  ASSERT_GE(n, kUpdates);

  ExpectSameTraffic(self_mapping->traffic(), given_cells->traffic());
  EXPECT_EQ(self_mapping->rounds(), given_cells->rounds());
  EXPECT_EQ(Bits(self_mapping->Estimate()), Bits(given_cells->Estimate()));
  const RealVector& e1 = self_mapping->GlobalEstimate();
  const RealVector& e2 = given_cells->GlobalEstimate();
  ASSERT_EQ(e1.dim(), e2.dim());
  for (size_t i = 0; i < e1.dim(); ++i) {
    ASSERT_EQ(Bits(e1[i]), Bits(e2[i])) << "estimate cell " << i;
  }
}

using EntryParam = std::tuple<ProtocolKind, QueryKind>;

std::string EntryName(const ::testing::TestParamInfo<EntryParam>& info) {
  std::string name = ProtocolKindName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name +
         (std::get<1>(info.param) == QueryKind::kSelfJoin ? "_Q1" : "_Q2");
}

class EntryPoints : public ::testing::TestWithParam<EntryParam> {};

TEST_P(EntryPoints, CellsTakingMatchesSelfMapping) {
  const auto [protocol, query] = GetParam();
  const int sites = 6;
  ExpectEntryPointsAgree(BaseRun(protocol, query, sites), SeededTrace(sites));
}

INSTANTIATE_TEST_SUITE_P(
    FlatProtocols, EntryPoints,
    ::testing::Combine(::testing::Values(ProtocolKind::kFgm,
                                         ProtocolKind::kFgmOpt,
                                         ProtocolKind::kGm,
                                         ProtocolKind::kCentral),
                       ::testing::Values(QueryKind::kSelfJoin,
                                         QueryKind::kJoin)),
    EntryName);

TEST(EntryPoints, TreeChaosCellsTakingMatchesSelfMapping) {
  ExpectEntryPointsAgree(TreeChaosRun(), SeededTrace(16));
}

/// Run's loop as it was before the map was shared: the protocol maps the
/// record for itself, and the ground truth maps it a second time.
RunResult MapTwiceReference(const RunConfig& config,
                            const std::vector<StreamRecord>& trace) {
  const std::unique_ptr<ContinuousQuery> query = MakeQuery(config);
  const std::unique_ptr<MonitoringProtocol> protocol =
      MakeProtocol(config, query.get());
  RealVector truth(query->dimension());
  const double inv_k = 1.0 / static_cast<double>(config.sites);
  std::vector<CellUpdate> deltas;
  RunResult result;
  SlidingWindowStream events(&trace, config.window_seconds);
  int64_t n = 0;
  while (const StreamRecord* rec = events.Next()) {
    protocol->ProcessRecord(*rec);
    ++n;
    deltas.clear();
    query->MapRecord(*rec, &deltas);
    for (const CellUpdate& u : deltas) truth[u.index] += inv_k * u.delta;
    if (n % config.check_every == 0 && protocol->BoundsCertified()) {
      const double q = query->Evaluate(truth);
      const ThresholdPair t = protocol->CurrentThresholds();
      const double margin = std::max(0.5 * (t.hi - t.lo), 1e-12);
      const double overshoot =
          std::max(std::max(q - t.hi, t.lo - q), 0.0) / margin;
      result.max_violation = std::max(result.max_violation, overshoot);
      ++result.checks;
    }
  }
  protocol->Finish();
  result.events = n;
  result.traffic = protocol->traffic();
  result.rounds = protocol->rounds();
  result.final_estimate = protocol->Estimate();
  result.final_truth = query->Evaluate(truth);
  return result;
}

void ExpectRunMatchesReference(const RunConfig& config,
                               const std::vector<StreamRecord>& trace) {
  const RunResult run = Run(config, trace);
  const RunResult ref = MapTwiceReference(config, trace);
  EXPECT_EQ(run.events, ref.events);
  EXPECT_EQ(run.checks, ref.checks);
  EXPECT_GT(run.checks, 0);
  EXPECT_EQ(Bits(run.max_violation), Bits(ref.max_violation));
  EXPECT_EQ(Bits(run.final_truth), Bits(ref.final_truth));
  EXPECT_EQ(Bits(run.final_estimate), Bits(ref.final_estimate));
  EXPECT_EQ(run.rounds, ref.rounds);
  ExpectSameTraffic(run.traffic, ref.traffic);
}

class RunLoop : public ::testing::TestWithParam<EntryParam> {};

TEST_P(RunLoop, MatchesMapTwiceReference) {
  const auto [protocol, query] = GetParam();
  const int sites = 6;
  RunConfig config = BaseRun(protocol, query, sites);
  // Off the every-event cadence, so the truth must also move between
  // checks.
  config.check_every = 3;
  ExpectRunMatchesReference(config, SeededTrace(sites));
}

INSTANTIATE_TEST_SUITE_P(
    FlatProtocols, RunLoop,
    ::testing::Combine(::testing::Values(ProtocolKind::kFgm,
                                         ProtocolKind::kFgmOpt,
                                         ProtocolKind::kGm,
                                         ProtocolKind::kCentral),
                       ::testing::Values(QueryKind::kSelfJoin,
                                         QueryKind::kJoin)),
    EntryName);

TEST(RunLoop, TreeChaosMatchesMapTwiceReference) {
  ExpectRunMatchesReference(TreeChaosRun(), SeededTrace(16));
}

}  // namespace
}  // namespace fgm
