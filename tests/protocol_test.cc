// End-to-end protocol tests: FGM (all variants), classic GM and the
// centralizing baseline, exercised through the experiment driver with
// per-event verification of the monitoring guarantee against exact ground
// truth.

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "gm/gm_protocol.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "stream/partition.h"
#include "stream/window.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

std::vector<StreamRecord> SmallTrace(int sites, int64_t updates,
                                     uint64_t seed = 20190326) {
  WorldCupConfig config;
  config.sites = sites;
  config.total_updates = updates;
  config.duration = 10000.0;
  config.distinct_clients = 2000;
  config.seed = seed;
  return GenerateWorldCupTrace(config);
}

RunConfig SmallRun(ProtocolKind protocol, QueryKind query, int sites,
                   double window) {
  RunConfig config;
  config.protocol = protocol;
  config.query = query;
  config.sites = sites;
  config.depth = 5;
  config.width = 32;
  config.epsilon = 0.15;
  config.window_seconds = window;
  config.check_every = 1;  // verify the guarantee after EVERY event
  config.fp_dimension = 64;
  return config;
}

// The exhaustive correctness sweep: protocol × query × stream model.
// The monitoring guarantee must hold at every event where the protocol
// certifies its bounds.
using SweepParam = std::tuple<ProtocolKind, QueryKind, double>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const ProtocolKind p = std::get<0>(info.param);
  const QueryKind q = std::get<1>(info.param);
  const double w = std::get<2>(info.param);
  std::string name = ProtocolKindName(p);
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  name += q == QueryKind::kSelfJoin  ? "_Q1"
          : q == QueryKind::kJoin    ? "_Q2"
                                     : "_Fp";
  name += w > 0 ? "_turnstile" : "_cashregister";
  return name;
}

class GuaranteeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GuaranteeSweep, BoundsHoldAtEveryEvent) {
  const auto [protocol, query, window] = GetParam();
  const int sites = 6;
  const auto trace = SmallTrace(sites, 30000);
  RunConfig config = SmallRun(protocol, query, sites, window);
  const RunResult result = ::fgm::Run(config, trace);
  EXPECT_GT(result.checks, 0);
  // Allow only floating-point hairline overshoots (fraction of margin).
  EXPECT_LE(result.max_violation, 1e-6)
      << result.protocol_name << " / " << result.query_name
      << " window=" << window;
  // All protocols must actually have processed the stream.
  const int64_t expected_events =
      window > 0 ? 2 * static_cast<int64_t>(trace.size())
                 : static_cast<int64_t>(trace.size());
  EXPECT_EQ(result.events, expected_events);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsQueriesModels, GuaranteeSweep,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kFgm, ProtocolKind::kFgmBasic,
                          ProtocolKind::kFgmOpt, ProtocolKind::kGm,
                          ProtocolKind::kCentral),
        ::testing::Values(QueryKind::kSelfJoin, QueryKind::kJoin,
                          QueryKind::kFpNorm),
        ::testing::Values(0.0, 1500.0)),
    SweepName);

TEST(FgmProtocol, TracksTheQueryAcrossRounds) {
  const int sites = 4;
  const auto trace = SmallTrace(sites, 40000);
  RunConfig config = SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                              sites, 0.0);
  config.check_every = 100;
  const RunResult result = ::fgm::Run(config, trace);
  EXPECT_GT(result.rounds, 3);
  // At the end the estimate must be within the bound of the truth.
  EXPECT_NEAR(result.final_estimate, result.final_truth,
              config.epsilon * result.final_truth +
                  2 * config.threshold_floor);
}

TEST(FgmProtocol, SubroundsPerRoundStayNearTheoreticalLog) {
  // §2.5.1: the paper observed ≤ 10 subrounds per round, typically
  // ≈ log2(1/ε_ψ) ≈ 7.
  const int sites = 6;
  const auto trace = SmallTrace(sites, 50000);
  auto query = MakeQuery(SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                                  sites, 0.0));
  FgmConfig fc;
  FgmProtocol protocol(query.get(), sites, fc);
  SlidingWindowStream events(&trace, 0.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
  }
  ASSERT_GT(protocol.rounds(), 5);
  const double mean = protocol.subrounds_per_round().Mean();
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 20.0);
  EXPECT_LE(protocol.subrounds_per_round().Quantile(0.9), 16);
}

TEST(FgmProtocol, RebalancingExtendsRounds) {
  const int sites = 6;
  const auto trace = SmallTrace(sites, 40000);
  const double window = 1200.0;  // turnstile: drifts partially cancel

  RunConfig with = SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin, sites,
                            window);
  with.check_every = 0;
  RunConfig without = with;
  without.protocol = ProtocolKind::kFgmBasic;

  const RunResult r_with = ::fgm::Run(with, trace);
  const RunResult r_without = ::fgm::Run(without, trace);
  EXPECT_GT(r_with.rebalances, 0);
  // Rebalancing must reduce the number of E-shipping rounds.
  EXPECT_LT(r_with.rounds, r_without.rounds);
}

// The dense reference for µ* = inf{µ : φ(B/(µk)) ≤ 0}: the bisection of
// §4.1 with every step rescaling B and evaluating φ from scratch.
double DenseMuStar(const SafeFunction& fn, const RealVector& balance,
                   double k, double tol) {
  if (balance.Norm() == 0.0) return 0.0;
  auto g = [&](double mu) {
    RealVector scaled = balance;
    scaled *= 1.0 / (mu * k);
    return fn.Eval(scaled);
  };
  if (g(1.0) >= 0.0) return 1.0;
  double lo = 1e-6, hi = 1.0;
  if (g(lo) < 0.0) return 0.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double v = g(mid);
    if (v < 0.0) {
      hi = mid;
      if (v > -tol) break;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// At every Rebalance event, re-derives µ* and ψ_B densely from the
// coordinator's φ and B (unchanged between the bisection and the event).
class RebalanceAuditSink : public TraceSink {
 public:
  RebalanceAuditSink(int sites, double bisection_tol)
      : k_(static_cast<double>(sites)), bisection_tol_(bisection_tol) {}

  void Attach(const FgmProtocol* protocol) { protocol_ = protocol; }
  int64_t rebalances() const { return rebalances_; }

 protected:
  void OnEvent(const TraceEvent& e) override {
    if (e.kind != TraceEventKind::kRebalance) return;
    ++rebalances_;
    const SafeFunction& fn = protocol_->safe_function();
    const RealVector& balance = protocol_->balance();
    const double tol = bisection_tol_ * std::fabs(fn.AtZero());
    const double mu = DenseMuStar(fn, balance, k_, tol);
    EXPECT_EQ(e.lambda, 1.0 - mu) << "rebalance " << rebalances_;
    double psi_b = 0.0;
    if (mu > 0.0) {
      RealVector scaled = balance;
      scaled *= 1.0 / (mu * k_);
      psi_b = mu * k_ * fn.Eval(scaled);
    }
    EXPECT_EQ(e.value, psi_b) << "rebalance " << rebalances_;
    EXPECT_LE(e.value, 0.0) << "rebalance " << rebalances_;
  }

 private:
  const FgmProtocol* protocol_ = nullptr;
  double k_;
  double bisection_tol_;
  int64_t rebalances_ = 0;
};

// The rebalance-heavy FGM/O join regime (Fig. 4 adverse): small ε, a
// window, 27 sites, D = 400. Rounds are long, rebalances frequent, and
// most flushes carry a few raw updates verbatim.
constexpr int kAdverseSites = 27;

RunConfig AdverseJoinRun() {
  RunConfig rc;
  rc.protocol = ProtocolKind::kFgmOpt;
  rc.query = QueryKind::kJoin;
  rc.sites = kAdverseSites;
  rc.depth = 5;
  rc.width = 40;
  rc.epsilon = 0.04;
  return rc;
}

std::vector<StreamRecord> AdverseJoinTrace() {
  WorldCupConfig wc;
  wc.sites = kAdverseSites;
  wc.total_updates = 20000;
  return GenerateWorldCupTrace(wc);
}

TEST(FgmProtocol, RebalanceMuStarMatchesDenseBisection) {
  // The coordinator's ray bisection must pick exactly the µ* of the dense
  // reference bisection, and ψ_B ≤ 0, at every rebalance.
  auto query = MakeQuery(AdverseJoinRun());
  const auto trace = AdverseJoinTrace();
  FgmConfig fc;
  fc.optimizer = true;
  RebalanceAuditSink audit(kAdverseSites, fc.bisection_tol);
  fc.trace = &audit;
  FgmProtocol protocol(query.get(), kAdverseSites, fc);
  audit.Attach(&protocol);
  SlidingWindowStream events(&trace, 3600.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
  }
  EXPECT_EQ(audit.rebalances(), protocol.rebalances());
  EXPECT_GT(protocol.rebalances(), 20);
}

TEST(FgmProtocol, RoundDriftsHoldEveryUpdateOfTheRound) {
  // The coordinator's per-child round drift is the sum of the child's
  // flushes — dense and verbatim, at rebalances and at the round end —
  // so it equals the sum of every update the child saw in the round. Its
  // norms reach the round's time-series sample.
  auto query = MakeQuery(AdverseJoinRun());
  const auto trace = AdverseJoinTrace();
  TimeSeries series;
  FgmConfig fc;
  fc.optimizer = true;
  fc.timeseries = &series;
  FgmProtocol protocol(query.get(), kAdverseSites, fc);
  std::vector<RealVector> drift(kAdverseSites,
                                RealVector(query->dimension()));
  std::vector<CellUpdate> cells;
  int64_t rounds = protocol.rounds();
  int64_t checked = 0;
  SlidingWindowStream events(&trace, 3600.0);
  while (const StreamRecord* rec = events.Next()) {
    cells.clear();
    query->MapRecord(*rec, &cells);
    for (const CellUpdate& c : cells) {
      drift[static_cast<size_t>(rec->site)][c.index] += c.delta;
    }
    protocol.ProcessRecord(*rec, cells);
    if (protocol.rounds() == rounds) continue;
    rounds = protocol.rounds();
    double norm_max = 0.0, norm_mean = 0.0;
    for (RealVector& x : drift) {
      norm_max = std::max(norm_max, x.Norm());
      norm_mean += x.Norm() / kAdverseSites;
      x.SetZero();
    }
    const RunSnapshot s = series.Samples().back();
    ASSERT_EQ(s.round, rounds - 1);
    EXPECT_NEAR(s.drift_norm_max, norm_max, 1e-9 * (1.0 + norm_max));
    EXPECT_NEAR(s.drift_norm_mean, norm_mean, 1e-9 * (1.0 + norm_mean));
    ++checked;
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(protocol.rebalances(), 20);
}

TEST(FgmProtocol, PsiStaysBelowZeroWhileCertified) {
  // Proposition 2.6 at the protocol level: whenever the coordinator's
  // counter is ≤ k (BoundsCertified), the last polled ψ is negative and
  // the estimate bounds are in force.
  const int sites = 5;
  const auto trace = SmallTrace(sites, 20000);
  auto query = MakeQuery(SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                                  sites, 0.0));
  FgmConfig fc;
  FgmProtocol protocol(query.get(), sites, fc);
  SlidingWindowStream events(&trace, 0.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
    ASSERT_TRUE(protocol.BoundsCertified());
    ASSERT_LT(protocol.last_psi(), 0.0);
  }
}

TEST(FgmProtocol, OptimizerUsesCheapFunctionsUnderPressure) {
  // Huge D relative to the stream: FGM/O should stop shipping safe zones
  // (the Fig. 4 adverse regime).
  const int sites = 8;
  const auto trace = SmallTrace(sites, 30000);
  RunConfig config = SmallRun(ProtocolKind::kFgmOpt, QueryKind::kSelfJoin,
                              sites, 600.0);
  config.width = 512;  // D = 2560 vs ~60k events
  config.epsilon = 0.05;
  config.check_every = 0;
  const RunResult opt = ::fgm::Run(config, trace);
  EXPECT_LT(opt.mean_full_function_fraction, 0.9);

  config.protocol = ProtocolKind::kFgm;
  const RunResult plain = ::fgm::Run(config, trace);
  EXPECT_LT(opt.comm_cost, plain.comm_cost);
}

TEST(GmProtocol, ViolationsAndPartialRebalances) {
  const int sites = 6;
  const auto trace = SmallTrace(sites, 30000);
  RunConfig rc = SmallRun(ProtocolKind::kGm, QueryKind::kSelfJoin, sites,
                          0.0);
  auto query = MakeQuery(rc);
  GmConfig gc;
  GmProtocol protocol(query.get(), sites, gc);
  SlidingWindowStream events(&trace, 0.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
  }
  EXPECT_GT(protocol.violations(), 0);
  EXPECT_GT(protocol.partial_rebalances(), 0);
  EXPECT_GT(protocol.rounds(), 1);
  // Rebalancing resolves more violations than full syncs do.
  EXPECT_LT(protocol.rounds(), protocol.violations());
}

TEST(GmProtocol, LoadDriftSetsEvaluatorState) {
  auto proj = std::make_shared<const AgmsProjection>(3, 8, 5);
  RealVector e(proj->dimension());
  e[0] = 4.0;
  SelfJoinQuery query(proj, 0.2);
  auto fn = query.MakeSafeFunction(e);
  auto eval = fn->MakeEvaluator();
  RealVector target(proj->dimension());
  target[3] = 1.5;
  target[17] = -2.5;
  LoadDrift(eval.get(), target);
  EXPECT_NEAR(eval->Value(), fn->Eval(target), 1e-9);
  EXPECT_NEAR(Distance(eval->drift(), target), 0.0, 1e-12);
}

TEST(CentralProtocol, ExactAndUnitCost) {
  const int sites = 3;
  const auto trace = SmallTrace(sites, 5000);
  RunConfig config = SmallRun(ProtocolKind::kCentral, QueryKind::kSelfJoin,
                              sites, 0.0);
  const RunResult result = ::fgm::Run(config, trace);
  EXPECT_DOUBLE_EQ(result.comm_cost, 1.0);
  EXPECT_DOUBLE_EQ(result.upstream_fraction, 0.0);
  EXPECT_NEAR(result.final_estimate, result.final_truth,
              1e-9 * std::fabs(result.final_truth));
  EXPECT_DOUBLE_EQ(result.max_violation, 0.0);
}

TEST(FgmProtocol, SkewDoesNotChangeRoundStructure) {
  // §5.4: ψ is a function of the drift sum only, so redistributing the
  // same global stream across sites leaves the round count unchanged
  // (without the optimizer, whose plan depends on per-site rates).
  const int sites = 9;
  auto trace = SmallTrace(sites, 30000);
  const auto skewed = MakeSkewedTrace(trace, sites, 4);

  RunConfig config = SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                              sites, 0.0);
  config.check_every = 0;
  const RunResult real = ::fgm::Run(config, trace);
  const RunResult skew = ::fgm::Run(config, skewed);
  EXPECT_EQ(real.rounds, skew.rounds);
}

}  // namespace
}  // namespace fgm
