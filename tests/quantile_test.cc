// Tests for quantile (percentile) monitoring: bucketization, the rank
// thresholds, the linear safe zone, and the end-to-end guarantee.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "query/quantile.h"
#include "query/variance.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

TEST(QuantileQuery, BucketizationRoundTrips) {
  QuantileQuery query(32, 0.5, 0.05);
  for (const double v : {0.1, 1.0, 14.0, 480.0, 19999.0}) {
    const int b = query.BucketOf(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 32);
    // The bucket's upper edge is at or above the value (monotone).
    EXPECT_GE(query.BucketValue(b), v * 0.999);
  }
  EXPECT_EQ(query.BucketOf(0.01), 0);
  EXPECT_EQ(query.BucketOf(1e9), 31);
  EXPECT_LE(query.BucketOf(10.0), query.BucketOf(100.0));
}

TEST(QuantileQuery, EvaluateFindsTheRankCrossing) {
  QuantileQuery query(8, 0.5, 0.1);
  RealVector state(8);
  state[2] = 10.0;
  state[5] = 9.0;
  // N = 19, target = 9.5: prefix reaches 10 at bucket 2.
  EXPECT_DOUBLE_EQ(query.Evaluate(state), 2.0);
  state[5] = 11.0;
  // N = 21, target = 10.5: prefix 10 at bucket 2, 21 at bucket 5.
  EXPECT_DOUBLE_EQ(query.Evaluate(state), 5.0);
}

TEST(QuantileQuery, ThresholdsBracketTheQuantile) {
  QuantileQuery query(16, 0.5, 0.1);
  Xoshiro256ss rng(1);
  RealVector e(16);
  for (int i = 0; i < 2000; ++i) {
    e[rng.NextBounded(16)] += 1.0;
  }
  const ThresholdPair t = query.Thresholds(e);
  const double q = query.Evaluate(e);
  EXPECT_LE(t.lo, q);
  EXPECT_GE(t.hi, q);
  EXPECT_LE(t.hi - t.lo, 16.0);
}

TEST(QuantileQuery, SafeZoneDef21Safety) {
  QuantileQuery query(16, 0.5, 0.1);
  Xoshiro256ss rng(2);
  RealVector e(16);
  // A spread-out reference histogram.
  for (int i = 0; i < 3000; ++i) {
    e[std::min<uint64_t>(rng.NextBounded(20), 15)] += 1.0;
  }
  auto fn = query.MakeSafeFunction(e);
  ASSERT_LT(fn->AtZero(), 0.0);
  const ThresholdPair t = query.Thresholds(e);

  int quiescent = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    // Definition 2.1 with k = 3 sites; drifts may delete (negative).
    RealVector sum(16);
    double psi = 0.0;
    for (int s = 0; s < 3; ++s) {
      RealVector x(16);
      for (size_t i = 0; i < 16; ++i) x[i] = 15.0 * rng.NextGaussian();
      psi += fn->Eval(x);
      sum += x;
    }
    if (psi > 0.0) continue;
    ++quiescent;
    sum *= 1.0 / 3.0;
    sum += e;
    const double q = query.Evaluate(sum);
    ASSERT_GE(q, t.lo);
    ASSERT_LE(q, t.hi);
  }
  EXPECT_GT(quiescent, 50);
}

TEST(QuantileQuery, BootstrapHandlesEmptyReference) {
  QuantileQuery query(16, 0.9, 0.05);
  const ThresholdPair cold = query.Thresholds(RealVector(16));
  EXPECT_LT(cold.lo, -1e200);
  auto fn = query.MakeSafeFunction(RealVector(16));
  EXPECT_LT(fn->AtZero(), 0.0);
}

class QuantileSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(QuantileSweep, GuaranteeHoldsEndToEndUnderFgm) {
  const auto [phi, window] = GetParam();
  WorldCupConfig wc;
  wc.sites = 5;
  wc.total_updates = 30000;
  wc.duration = 8000.0;
  const auto trace = GenerateWorldCupTrace(wc);

  QuantileQuery query(48, phi, 0.05);
  FgmConfig config;
  FgmProtocol protocol(&query, 5, config);

  RealVector truth(query.dimension());
  std::vector<CellUpdate> deltas;
  SlidingWindowStream events(&trace, window);
  int64_t checks = 0;
  while (const StreamRecord* rec = events.Next()) {
    deltas.clear();
    query.MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) truth[u.index] += u.delta / 5.0;
    if (protocol.BoundsCertified()) {
      const ThresholdPair t = protocol.CurrentThresholds();
      const double q = query.Evaluate(truth);
      ASSERT_GE(q, t.lo);
      ASSERT_LE(q, t.hi);
      ++checks;
    }
  }
  EXPECT_GT(checks, 1000);
  EXPECT_GT(protocol.rounds(), 1);
  // D = #buckets is tiny: monitoring must be far below centralizing.
  const double cost =
      static_cast<double>(protocol.traffic().total_words()) /
      static_cast<double>(events.produced());
  EXPECT_LT(cost, 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    PhiAndModel, QuantileSweep,
    ::testing::Combine(::testing::Values(0.5, 0.95),
                       ::testing::Values(0.0, 1500.0)));

TEST(QuantileQuery, OptimizerFeedbackGuardPreventsCheapPlanBlowup) {
  // The quantile zone barely moves while raw drift norms churn, so the
  // optimizer's Eq. 16-17 model badly overrates cheap bounds here; the
  // feedback guard (DESIGN.md §3b) must keep FGM/O in FGM's cost range.
  WorldCupConfig wc;
  wc.sites = 8;
  wc.total_updates = 60000;
  wc.duration = 20000.0;
  const auto trace = GenerateWorldCupTrace(wc);

  QuantileQuery query(48, 0.95, 0.02);
  auto run = [&](bool optimizer) {
    FgmConfig config;
    config.optimizer = optimizer;
    FgmProtocol protocol(&query, 8, config);
    SlidingWindowStream events(&trace, 6000.0);
    int64_t n = 0;
    while (const StreamRecord* rec = events.Next()) {
      protocol.ProcessRecord(*rec);
      ++n;
    }
    return static_cast<double>(protocol.traffic().total_words()) /
           static_cast<double>(n);
  };
  const double fgm = run(false);
  const double fgm_o = run(true);
  EXPECT_LT(fgm_o, 4.0 * fgm + 0.05);
}

}  // namespace
}  // namespace fgm
