// Tests for heavy-hitter monitoring: the max-of-halfspaces safe zone with
// lazy-heap incremental evaluation, the report-set semantics, and the
// end-to-end set guarantee through FGM.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "query/heavy_hitters.h"
#include "safezone/heavy_hitters_sz.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

RealVector SkewedHistogram(size_t dim, Xoshiro256ss& rng, int draws = 4000) {
  RealVector h(dim);
  ZipfDistribution zipf(dim, 1.2);
  for (int i = 0; i < draws; ++i) h[zipf.Sample(rng) - 1] += 1.0;
  return h;
}

TEST(HeavyHitterSafeFunction, NegativeAtZeroAndGroupsNonempty) {
  Xoshiro256ss rng(1);
  const RealVector e = SkewedHistogram(32, rng);
  HeavyHitterSafeFunction fn(e, /*theta=*/0.05, /*eps=*/0.02);
  EXPECT_LT(fn.AtZero(), 0.0);
  int heavies = 0;
  for (uint8_t h : fn.heavy()) heavies += h;
  EXPECT_GT(heavies, 0);
  EXPECT_LT(heavies, 32);
}

TEST(HeavyHitterSafeFunction, Def21Safety) {
  Xoshiro256ss rng(2);
  const RealVector e = SkewedHistogram(24, rng);
  const double theta = 0.06, eps = 0.03;
  HeavyHitterSafeFunction fn(e, theta, eps);
  const double scale = std::fabs(fn.AtZero());
  int quiescent = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    RealVector sum(24);
    double psi = 0.0;
    for (int s = 0; s < 3; ++s) {
      RealVector x(24);
      for (size_t i = 0; i < 24; ++i) {
        x[i] = 0.8 * scale * rng.NextGaussian();
      }
      psi += fn.Eval(x);
      sum += x;
    }
    if (psi > 0.0) continue;
    ++quiescent;
    sum *= 1.0 / 3.0;
    sum += e;
    const double n = sum.Sum();
    for (size_t i = 0; i < 24; ++i) {
      if (fn.heavy()[i]) {
        ASSERT_GE(sum[i], (theta - eps) * n - 1e-9 * n);
      } else {
        ASSERT_LE(sum[i], (theta + eps) * n + 1e-9 * n);
      }
    }
  }
  EXPECT_GT(quiescent, 50);
}

TEST(HeavyHitterSafeFunction, LazyHeapEvaluatorMatchesEval) {
  Xoshiro256ss rng(3);
  const RealVector e = SkewedHistogram(16, rng);
  HeavyHitterSafeFunction fn(e, 0.08, 0.03);
  auto eval = fn.MakeEvaluator();
  RealVector x(16);
  for (int t = 0; t < 2000; ++t) {
    const size_t idx = rng.NextBounded(16);
    const double delta = 3.0 * rng.NextGaussian();
    eval->ApplyDelta(idx, delta);
    x[idx] += delta;
    const double ref = fn.Eval(x);
    ASSERT_NEAR(eval->Value(), ref, 1e-9 * (1.0 + std::fabs(ref)))
        << "step " << t;
    if (t % 50 == 0) {
      const double lambda = 0.1 + 0.9 * rng.NextDouble();
      ASSERT_NEAR(eval->ValueAtScale(lambda),
                  PerspectiveEval(fn, x, lambda),
                  1e-9 * (1.0 + std::fabs(ref)));
    }
  }
  eval->Reset();
  EXPECT_NEAR(eval->Value(), fn.AtZero(), 1e-12);
}

TEST(HeavyHitterSafeFunction, ConvexAndNonexpansive) {
  Xoshiro256ss rng(4);
  const RealVector e = SkewedHistogram(12, rng);
  HeavyHitterSafeFunction fn(e, 0.08, 0.03);
  for (int t = 0; t < 500; ++t) {
    RealVector a(12), b(12);
    for (size_t i = 0; i < 12; ++i) {
      a[i] = 50.0 * rng.NextGaussian();
      b[i] = 50.0 * rng.NextGaussian();
    }
    const double theta = rng.NextDouble();
    RealVector mid = a;
    mid *= theta;
    mid.Axpy(1.0 - theta, b);
    ASSERT_LE(fn.Eval(mid),
              theta * fn.Eval(a) + (1.0 - theta) * fn.Eval(b) + 1e-9);
    ASSERT_LE(std::fabs(fn.Eval(a) - fn.Eval(b)), Distance(a, b) + 1e-9);
  }
}

TEST(HeavyHitterQuery, ReportSetAndValidity) {
  HeavyHitterQuery query(8, 0.2, 0.05);
  RealVector state(8);
  state[0] = 50.0;  // 50%
  state[1] = 30.0;  // 30%
  state[2] = 20.0;  // 20% — exactly at θ
  const auto report = query.ReportSet(state);
  EXPECT_EQ(report[0], 1);
  EXPECT_EQ(report[1], 1);
  EXPECT_EQ(report[2], 1);
  EXPECT_EQ(report[3], 0);
  EXPECT_TRUE(query.SetIsValidFor(report, state));
  EXPECT_DOUBLE_EQ(query.Evaluate(state), 3.0);

  // Shrink item 0 below (θ-ε)N = 0.15·55 = 8.25: the report is invalid.
  RealVector moved = state;
  moved[0] = 5.0;
  EXPECT_FALSE(query.SetIsValidFor(report, moved));
}

TEST(HeavyHitterQuery, EndToEndSetGuaranteeUnderFgm) {
  WorldCupConfig wc;
  wc.sites = 5;
  wc.total_updates = 30000;
  wc.duration = 8000.0;
  wc.distinct_clients = 500;  // folded into few buckets → real heavies
  const auto trace = GenerateWorldCupTrace(wc);

  HeavyHitterQuery query(64, /*theta=*/0.04, /*epsilon=*/0.015);
  FgmConfig config;
  FgmProtocol protocol(&query, 5, config);

  RealVector truth(query.dimension());
  std::vector<CellUpdate> deltas;
  SlidingWindowStream events(&trace, 1500.0);
  std::vector<uint8_t> report = query.ReportSet(protocol.GlobalEstimate());
  int64_t rounds_seen = protocol.rounds();
  int64_t checks = 0;
  bool past_bootstrap = false;
  while (const StreamRecord* rec = events.Next()) {
    deltas.clear();
    query.MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) truth[u.index] += u.delta / 5.0;
    if (protocol.rounds() != rounds_seen) {
      rounds_seen = protocol.rounds();
      report = query.ReportSet(protocol.GlobalEstimate());
      past_bootstrap = protocol.GlobalEstimate().Sum() >= 32.0;
    }
    if (past_bootstrap && protocol.BoundsCertified()) {
      ASSERT_TRUE(query.SetIsValidFor(report, truth))
          << "at event " << checks;
      ++checks;
    }
  }
  EXPECT_GT(checks, 1000);
  EXPECT_GT(protocol.rounds(), 1);
}

}  // namespace
}  // namespace fgm
