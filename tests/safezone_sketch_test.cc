// Property tests for the sketch-query safe functions (self-join Q1, join
// Q2) and the weighted median composition.
//
// The central check is Definition 2.1 itself, instantiated with random
// drift configurations: whenever Σ_i φ(X_i) ≤ 0 the global sketch state
// must satisfy the monitored thresholds. This validates the entire
// derivation chain (row conditions → median composition → max of sides).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "safezone/ball.h"
#include "safezone/cheap_bound.h"
#include "safezone/compose.h"
#include "safezone/halfspace.h"
#include "safezone/heavy_hitters_sz.h"
#include "safezone/join_sz.h"
#include "safezone/lifted.h"
#include "safezone/median_compose.h"
#include "safezone/norm_threshold.h"
#include "safezone/selfjoin_sz.h"
#include "safezone/variance_sz.h"
#include "sketch/fast_agms.h"
#include "util/rng.h"
#include "util/subsets.h"

namespace fgm {
namespace {

RealVector RandomVector(size_t dim, double scale, Xoshiro256ss& rng) {
  RealVector v(dim);
  for (size_t i = 0; i < dim; ++i) v[i] = scale * rng.NextGaussian();
  return v;
}

// Builds a reference sketch state from a Zipf stream.
RealVector ReferenceSketch(const AgmsProjection& proj, int updates,
                           Xoshiro256ss& rng, bool concatenated = false) {
  const size_t dim = proj.dimension();
  RealVector state(concatenated ? 2 * dim : dim);
  ZipfDistribution zipf(500, 1.1);
  std::vector<CellUpdate> deltas;
  for (int i = 0; i < updates; ++i) {
    deltas.clear();
    proj.Map(zipf.Sample(rng), 1.0, &deltas);
    const size_t offset =
        (concatenated && rng.NextDouble() < 0.5) ? dim : 0;
    for (const CellUpdate& u : deltas) state[u.index + offset] += u.delta;
  }
  return state;
}

TEST(MedianComposition, MatchesBruteForce) {
  Xoshiro256ss rng(1);
  const std::vector<double> weights = {0.5, 1.0, 2.0, 0.25, 1.5};
  const int m = 3;
  MedianComposition comp(weights, m);
  for (int t = 0; t < 100; ++t) {
    std::vector<double> values(weights.size());
    for (double& v : values) v = rng.NextGaussian();
    double best = -1e300;
    for (const auto& subset : EnumerateSubsets(5, m)) {
      double num = 0.0, den = 0.0;
      for (int i : subset) {
        num += weights[static_cast<size_t>(i)] *
               values[static_cast<size_t>(i)];
        den += weights[static_cast<size_t>(i)] *
               weights[static_cast<size_t>(i)];
      }
      best = std::max(best, num / std::sqrt(den));
    }
    ASSERT_NEAR(comp.Compose(values), best, 1e-12);
  }
}

TEST(MedianComposition, AtZeroIsMinusSmallestSubsetNorm) {
  const std::vector<double> weights = {3.0, 1.0, 2.0};
  MedianComposition comp(weights, 2);
  // Smallest Σw² over 2-subsets: {1, 2} → 1 + 4 = 5.
  EXPECT_NEAR(comp.AtZero(), -std::sqrt(5.0), 1e-12);
  std::vector<double> at_zero = {-3.0, -1.0, -2.0};
  EXPECT_NEAR(comp.Compose(at_zero), comp.AtZero(), 1e-12);
}

TEST(MedianComposition, SafetySemantics) {
  // If Compose(values) <= 0 then fewer than m of the values are positive.
  Xoshiro256ss rng(2);
  const std::vector<double> weights = {1.0, 1.0, 2.0, 0.5};
  const int m = 2;
  MedianComposition comp(weights, m);
  int nontrivial = 0;
  for (int t = 0; t < 2000; ++t) {
    std::vector<double> values(weights.size());
    for (double& v : values) v = rng.NextGaussian();
    if (comp.Compose(values) > 0.0) continue;
    const long positives =
        std::count_if(values.begin(), values.end(),
                      [](double v) { return v > 0.0; });
    ASSERT_LT(positives, m);
    if (positives > 0) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 0);
}

class SketchSafeFunctionTest : public ::testing::TestWithParam<int> {};

TEST_P(SketchSafeFunctionTest, SelfJoinDef21Safety) {
  const int k = GetParam();
  Xoshiro256ss rng(100 + static_cast<uint64_t>(k));
  auto proj = std::make_shared<const AgmsProjection>(5, 32, 7);
  const RealVector e = ReferenceSketch(*proj, 2000, rng);
  const double q = SelfJoinEstimate(*proj, e);
  ASSERT_GT(q, 0.0);
  const double t_lo = 0.8 * q, t_hi = 1.2 * q;
  SelfJoinSafeFunction fn(proj, e, t_lo, t_hi);
  ASSERT_LT(fn.AtZero(), 0.0);

  const double scale = std::fabs(fn.AtZero()) / std::sqrt(32.0 * 5);
  int quiescent = 0;
  for (int t = 0; t < 1500; ++t) {
    double psi = 0.0;
    RealVector sum(e.dim());
    for (int i = 0; i < k; ++i) {
      const RealVector x =
          RandomVector(e.dim(), scale * (0.5 + 2.0 * rng.NextDouble()), rng);
      psi += fn.Eval(x);
      sum += x;
    }
    if (psi > 0.0) continue;
    ++quiescent;
    sum *= 1.0 / k;
    sum += e;
    const double global = SelfJoinEstimate(*proj, sum);
    ASSERT_GE(global, t_lo - 1e-9 * q);
    ASSERT_LE(global, t_hi + 1e-9 * q);
  }
  EXPECT_GT(quiescent, 10) << "test should exercise quiescent states";
}

TEST_P(SketchSafeFunctionTest, JoinDef21Safety) {
  const int k = GetParam();
  Xoshiro256ss rng(200 + static_cast<uint64_t>(k));
  auto proj = std::make_shared<const AgmsProjection>(5, 32, 9);
  const RealVector e = ReferenceSketch(*proj, 4000, rng, /*concatenated=*/true);
  const double q = JoinEstimateConcatenated(*proj, e);
  const double margin = std::max(0.25 * std::fabs(q), 1.0);
  const double t_lo = q - margin, t_hi = q + margin;
  JoinSafeFunction fn(proj, e, t_lo, t_hi);
  ASSERT_LT(fn.AtZero(), 0.0);

  const double scale = std::fabs(fn.AtZero()) / std::sqrt(64.0 * 5);
  int quiescent = 0;
  for (int t = 0; t < 1500; ++t) {
    double psi = 0.0;
    RealVector sum(e.dim());
    for (int i = 0; i < k; ++i) {
      const RealVector x =
          RandomVector(e.dim(), scale * (0.5 + 2.0 * rng.NextDouble()), rng);
      psi += fn.Eval(x);
      sum += x;
    }
    if (psi > 0.0) continue;
    ++quiescent;
    sum *= 1.0 / k;
    sum += e;
    const double global = JoinEstimateConcatenated(*proj, sum);
    ASSERT_GE(global, t_lo - 1e-6 * margin);
    ASSERT_LE(global, t_hi + 1e-6 * margin);
  }
  EXPECT_GT(quiescent, 10);
}

INSTANTIATE_TEST_SUITE_P(VaryingSites, SketchSafeFunctionTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SelfJoinSafeFunction, EvaluatorMatchesEvalAndPerspective) {
  Xoshiro256ss rng(11);
  auto proj = std::make_shared<const AgmsProjection>(5, 16, 3);
  const RealVector e = ReferenceSketch(*proj, 1000, rng);
  const double q = SelfJoinEstimate(*proj, e);
  SelfJoinSafeFunction fn(proj, e, 0.7 * q, 1.3 * q);
  auto eval = fn.MakeEvaluator();
  RealVector x(e.dim());
  for (int t = 0; t < 300; ++t) {
    const size_t idx = rng.NextBounded(e.dim());
    const double delta = rng.NextGaussian() * 2.0;
    eval->ApplyDelta(idx, delta);
    x[idx] += delta;
    const double ref = fn.Eval(x);
    ASSERT_NEAR(eval->Value(), ref, 1e-6 * (1.0 + std::fabs(ref)));
    const double lambda = 0.05 + 0.95 * rng.NextDouble();
    ASSERT_NEAR(eval->ValueAtScale(lambda), PerspectiveEval(fn, x, lambda),
                1e-6 * (1.0 + std::fabs(ref)));
  }
  eval->Reset();
  EXPECT_NEAR(eval->Value(), fn.AtZero(), 1e-9);
}

TEST(JoinSafeFunction, EvaluatorMatchesEvalAndPerspective) {
  Xoshiro256ss rng(13);
  auto proj = std::make_shared<const AgmsProjection>(5, 16, 5);
  const RealVector e = ReferenceSketch(*proj, 2000, rng, /*concatenated=*/true);
  const double q = JoinEstimateConcatenated(*proj, e);
  const double margin = std::max(0.3 * std::fabs(q), 1.0);
  JoinSafeFunction fn(proj, e, q - margin, q + margin);
  auto eval = fn.MakeEvaluator();
  RealVector x(e.dim());
  for (int t = 0; t < 300; ++t) {
    const size_t idx = rng.NextBounded(e.dim());
    const double delta = rng.NextGaussian() * 2.0;
    eval->ApplyDelta(idx, delta);
    x[idx] += delta;
    const double ref = fn.Eval(x);
    ASSERT_NEAR(eval->Value(), ref, 1e-6 * (1.0 + std::fabs(ref)));
    const double lambda = 0.05 + 0.95 * rng.NextDouble();
    ASSERT_NEAR(eval->ValueAtScale(lambda), PerspectiveEval(fn, x, lambda),
                1e-6 * (1.0 + std::fabs(ref)));
  }
  eval->Reset();
  EXPECT_NEAR(eval->Value(), fn.AtZero(), 1e-9);
}

TEST(SelfJoinSafeFunction, ConvexAndNonexpansive) {
  Xoshiro256ss rng(17);
  auto proj = std::make_shared<const AgmsProjection>(5, 8, 3);
  const RealVector e = ReferenceSketch(*proj, 500, rng);
  const double q = SelfJoinEstimate(*proj, e);
  SelfJoinSafeFunction fn(proj, e, 0.6 * q, 1.4 * q);
  const double scale = 2.0 * std::fabs(fn.AtZero());
  for (int t = 0; t < 300; ++t) {
    const RealVector a = RandomVector(e.dim(), scale, rng);
    const RealVector b = RandomVector(e.dim(), scale, rng);
    const double theta = rng.NextDouble();
    RealVector mid = a;
    mid *= theta;
    mid.Axpy(1.0 - theta, b);
    ASSERT_LE(fn.Eval(mid),
              theta * fn.Eval(a) + (1.0 - theta) * fn.Eval(b) + 1e-7);
    ASSERT_LE(std::fabs(fn.Eval(a) - fn.Eval(b)), Distance(a, b) + 1e-9);
  }
}

TEST(JoinSafeFunction, ConvexAndNonexpansive) {
  Xoshiro256ss rng(19);
  auto proj = std::make_shared<const AgmsProjection>(5, 8, 3);
  const RealVector e = ReferenceSketch(*proj, 1000, rng, /*concatenated=*/true);
  const double q = JoinEstimateConcatenated(*proj, e);
  const double margin = std::max(0.4 * std::fabs(q), 1.0);
  JoinSafeFunction fn(proj, e, q - margin, q + margin);
  const double scale = 2.0 * std::fabs(fn.AtZero());
  for (int t = 0; t < 300; ++t) {
    const RealVector a = RandomVector(e.dim(), scale, rng);
    const RealVector b = RandomVector(e.dim(), scale, rng);
    const double theta = rng.NextDouble();
    RealVector mid = a;
    mid *= theta;
    mid.Axpy(1.0 - theta, b);
    ASSERT_LE(fn.Eval(mid),
              theta * fn.Eval(a) + (1.0 - theta) * fn.Eval(b) + 1e-7);
    ASSERT_LE(std::fabs(fn.Eval(a) - fn.Eval(b)), Distance(a, b) + 1e-9);
  }
}

TEST(SelfJoinSafeFunction, ColdStartWithZeroReference) {
  // At E = 0 the lower side is vacuous (T_lo < 0) and the upper side must
  // still produce a usable function.
  auto proj = std::make_shared<const AgmsProjection>(5, 16, 21);
  SelfJoinSafeFunction fn(proj, RealVector(proj->dimension()), -1.0, 1.0);
  EXPECT_LT(fn.AtZero(), 0.0);
  // Small drift: quiescent; big drift: not.
  RealVector tiny(proj->dimension());
  tiny[0] = 0.01;
  EXPECT_LT(fn.Eval(tiny), 0.0);
  RealVector big(proj->dimension());
  for (size_t i = 0; i < big.dim(); ++i) big[i] = 10.0;
  EXPECT_GT(fn.Eval(big), 0.0);
}

TEST(JoinSafeFunction, ColdStartWithZeroReference) {
  auto proj = std::make_shared<const AgmsProjection>(5, 16, 23);
  JoinSafeFunction fn(proj, RealVector(2 * proj->dimension()), -1.0, 1.0);
  EXPECT_LT(fn.AtZero(), 0.0);
}

TEST(JoinSafeFunction, NegativeEstimateReference) {
  // Join estimates can be negative; thresholds then flip around a negative
  // center and the safe function must still be valid.
  Xoshiro256ss rng(29);
  auto proj = std::make_shared<const AgmsProjection>(5, 16, 25);
  const size_t dim = proj->dimension();
  // Craft a state with clearly negative join estimate: S2 = -S1.
  RealVector e(2 * dim);
  const RealVector base = ReferenceSketch(*proj, 1000, rng);
  for (size_t i = 0; i < dim; ++i) {
    e[i] = base[i];
    e[dim + i] = -base[i];
  }
  const double q = JoinEstimateConcatenated(*proj, e);
  ASSERT_LT(q, 0.0);
  const double margin = 0.3 * std::fabs(q);
  JoinSafeFunction fn(proj, e, q - margin, q + margin);
  EXPECT_LT(fn.AtZero(), 0.0);
  // Def 2.1 spot check, k = 2.
  const double scale = std::fabs(fn.AtZero()) / std::sqrt(32.0 * 5);
  int quiescent = 0;
  for (int t = 0; t < 800; ++t) {
    RealVector a = RandomVector(e.dim(), scale, rng);
    RealVector b = RandomVector(e.dim(), scale, rng);
    if (fn.Eval(a) + fn.Eval(b) > 0.0) continue;
    ++quiescent;
    RealVector avg = a;
    avg += b;
    avg *= 0.5;
    avg += e;
    const double global = JoinEstimateConcatenated(*proj, avg);
    ASSERT_GE(global, q - margin - 1e-6 * margin);
    ASSERT_LE(global, q + margin + 1e-6 * margin);
  }
  EXPECT_GT(quiescent, 10);
}

// ---------------------------------------------------------------------------
// The perspective λφ(x/λ) for every λ > 0. Sites evaluate it at their
// rebalancing scale λ ≤ 1; the coordinator's µ* bisection evaluates it
// along the ray B/(µk) at λ = µk, which exceeds 1. Every shipped
// evaluator's ValueAtScale must match the dense reference λ·Eval(x/λ).

std::unique_ptr<SafeFunction> MakeShipped(const std::string& name,
                                          Xoshiro256ss& rng) {
  if (name == "Ball") {
    return std::make_unique<BallSafeFunction>(RandomVector(8, 1.0, rng),
                                              6.0);
  }
  if (name == "Halfspace") {
    return std::make_unique<HalfspaceSafeFunction>(RandomVector(8, 1.0, rng),
                                                   -2.0);
  }
  if (name == "CheapBound") {
    return std::make_unique<CheapBoundFunction>(8, -3.0, 1.5);
  }
  if (name == "L2Threshold") {
    return std::make_unique<LpNormThreshold>(RandomVector(8, 0.5, rng), 2.0,
                                             8.0);
  }
  if (name == "L3Threshold") {
    return std::make_unique<LpNormThreshold>(RandomVector(8, 0.5, rng), 3.0,
                                             8.0);
  }
  if (name == "F2TwoSided") {  // MaxComposition
    return MakeF2TwoSided(RandomVector(8, 2.0, rng), 0.15);
  }
  if (name == "SumComposition") {
    std::vector<std::unique_ptr<SafeFunction>> children;
    children.push_back(
        std::make_unique<BallSafeFunction>(RandomVector(8, 1.0, rng), 6.0));
    children.push_back(std::make_unique<HalfspaceSafeFunction>(
        RandomVector(8, 1.0, rng), -2.0));
    return std::make_unique<SumComposition>(std::move(children));
  }
  if (name == "Lifted") {
    return std::make_unique<LiftedSafeFunction>(
        std::make_unique<BallSafeFunction>(RandomVector(4, 1.0, rng), 5.0),
        /*offset=*/3, /*total_dim=*/9);
  }
  if (name == "Variance") {  // NaiveDriftEvaluator children
    return MakeVarianceSafeFunction(RealVector{60.0, 240.0, 1680.0}, 9.0,
                                    15.0);
  }
  if (name == "HeavyHitters") {
    RealVector e(24);
    ZipfDistribution zipf(24, 1.2);
    for (int i = 0; i < 4000; ++i) e[zipf.Sample(rng) - 1] += 1.0;
    return std::make_unique<HeavyHitterSafeFunction>(e, 0.08, 0.03);
  }
  auto proj = std::make_shared<const AgmsProjection>(5, 16, 7);
  if (name == "SelfJoin") {
    const RealVector e = ReferenceSketch(*proj, 1000, rng);
    const double q = SelfJoinEstimate(*proj, e);
    return std::make_unique<SelfJoinSafeFunction>(proj, e, 0.7 * q, 1.3 * q);
  }
  if (name == "Join") {
    const RealVector e =
        ReferenceSketch(*proj, 2000, rng, /*concatenated=*/true);
    const double q = JoinEstimateConcatenated(*proj, e);
    const double margin = std::max(0.3 * std::fabs(q), 1.0);
    return std::make_unique<JoinSafeFunction>(proj, e, q - margin,
                                              q + margin);
  }
  return nullptr;
}

class PerspectiveTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PerspectiveTest, ValueAtScaleMatchesDenseReferenceForAnyLambda) {
  Xoshiro256ss rng(23);
  const std::unique_ptr<SafeFunction> fn = MakeShipped(GetParam(), rng);
  ASSERT_NE(fn, nullptr);
  const size_t dim = fn->dimension();
  const double phi0 = std::fabs(fn->AtZero());
  for (int trial = 0; trial < 30; ++trial) {
    // Drifts from well inside the zone to well outside it; every
    // coordinate is loaded once, then a few cells move again.
    const double scale = phi0 * (0.05 + 3.0 * rng.NextDouble()) /
                         std::sqrt(static_cast<double>(dim));
    auto eval = fn->MakeEvaluator();
    RealVector x = RandomVector(dim, scale, rng);
    for (size_t i = 0; i < dim; ++i) eval->ApplyDelta(i, x[i]);
    for (int t = 0; t < 5; ++t) {
      const size_t i = rng.NextBounded(dim);
      const double delta = scale * rng.NextGaussian();
      eval->ApplyDelta(i, delta);
      x[i] += delta;
    }
    for (const double lambda : {0.3, 1.0, 4.0, 27.0, 500.0}) {
      RealVector scaled = x;
      scaled *= 1.0 / lambda;
      const double reference = lambda * fn->Eval(scaled);
      // Relative to the perspective's own magnitude, which the terms of
      // λφ(x/λ) reach even where they cancel: λ|φ(0)| + ‖x‖.
      const double magnitude =
          std::max(std::fabs(reference), lambda * phi0 + x.Norm());
      ASSERT_NEAR(eval->ValueAtScale(lambda), reference, 1e-9 * magnitude)
          << GetParam() << " trial " << trial << " lambda " << lambda;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryShippedEvaluator, PerspectiveTest,
    ::testing::Values("Ball", "Halfspace", "CheapBound", "L2Threshold",
                      "L3Threshold", "F2TwoSided", "SumComposition", "Lifted",
                      "Variance", "HeavyHitters", "SelfJoin", "Join"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace fgm
