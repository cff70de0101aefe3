// Tests for simultaneous multi-query monitoring: lifting, composition,
// and the end-to-end guarantee of EVERY member query under one protocol.

#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "query/multi.h"
#include "query/variance.h"
#include "safezone/ball.h"
#include "safezone/lifted.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

std::unique_ptr<MultiQuery> MakeSelfJoinPlusVariance(double eps) {
  auto projection = std::make_shared<const AgmsProjection>(5, 32, 11);
  std::vector<std::unique_ptr<ContinuousQuery>> members;
  members.push_back(std::make_unique<SelfJoinQuery>(projection, eps));
  members.push_back(std::make_unique<VarianceQuery>(eps));
  return std::make_unique<MultiQuery>(std::move(members));
}

TEST(LiftedSafeFunction, ActsOnItsBlockOnly) {
  auto ball = std::make_unique<BallSafeFunction>(RealVector{1.0, 0.0}, 2.0);
  const BallSafeFunction reference(RealVector{1.0, 0.0}, 2.0);
  LiftedSafeFunction lifted(std::move(ball), /*offset=*/3, /*total_dim=*/7);
  EXPECT_EQ(lifted.dimension(), 7u);
  EXPECT_DOUBLE_EQ(lifted.AtZero(), reference.AtZero());

  RealVector x(7);
  x[0] = 100.0;  // outside the block: must not matter
  x[3] = 0.5;
  x[4] = -0.25;
  EXPECT_DOUBLE_EQ(lifted.Eval(x),
                   reference.Eval(RealVector{0.5, -0.25}));

  auto eval = lifted.MakeEvaluator();
  eval->ApplyDelta(0, 100.0);
  eval->ApplyDelta(3, 0.5);
  eval->ApplyDelta(4, -0.25);
  EXPECT_DOUBLE_EQ(eval->Value(), lifted.Eval(x));
  EXPECT_DOUBLE_EQ(eval->drift()[0], 100.0);
  const double lambda = 0.5;
  EXPECT_NEAR(eval->ValueAtScale(lambda), PerspectiveEval(lifted, x, lambda),
              1e-12);
}

TEST(MultiQuery, ConcatenatesStatesAndDeltas) {
  auto multi = MakeSelfJoinPlusVariance(0.1);
  EXPECT_EQ(multi->dimension(), 5u * 32u + 3u);
  EXPECT_EQ(multi->member_count(), 2u);
  StreamRecord rec;
  rec.cid = 7;
  rec.type = FileType::kImage;
  rec.weight = 1.0;
  std::vector<CellUpdate> deltas;
  multi->MapRecord(rec, &deltas);
  ASSERT_EQ(deltas.size(), 5u + 3u);
  for (size_t j = 0; j < 5; ++j) EXPECT_LT(deltas[j].index, 160u);
  for (size_t j = 5; j < 8; ++j) EXPECT_GE(deltas[j].index, 160u);
}

TEST(MultiQuery, MemberEvaluationSlices) {
  auto multi = MakeSelfJoinPlusVariance(0.1);
  RealVector state(multi->dimension());
  // Put variance-ish content into member 1's block.
  state[160] = 10.0;   // count
  state[161] = 40.0;   // Σv
  state[162] = 250.0;  // Σv²
  EXPECT_NEAR(multi->EvaluateMember(1, state), 25.0 - 16.0, 1e-12);
}

TEST(MultiQuery, SafeFunctionGuardsEveryMember) {
  // Build a warm state, then check Def 2.1 for BOTH member conditions.
  auto multi = MakeSelfJoinPlusVariance(0.25);
  Xoshiro256ss rng(3);
  RealVector e(multi->dimension());
  std::vector<CellUpdate> deltas;
  StreamRecord rec;
  for (int i = 0; i < 3000; ++i) {
    rec.cid = rng.NextBounded(200);
    rec.type = (i % 3) ? FileType::kImage : FileType::kVideo;
    rec.weight = 1.0;
    deltas.clear();
    multi->MapRecord(rec, &deltas);
    for (const auto& u : deltas) e[u.index] += u.delta;
  }
  auto fn = multi->MakeSafeFunction(e);
  ASSERT_LT(fn->AtZero(), 0.0);

  const ThresholdPair t0 = multi->MemberThresholds(0, e);
  const ThresholdPair t1 = multi->MemberThresholds(1, e);
  const double scale = std::fabs(fn->AtZero());
  int quiescent = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    RealVector x(multi->dimension());
    // Random drift, heavier in the low-dimension variance block.
    for (size_t i = 0; i < x.dim(); ++i) {
      const double s = i >= 160 ? 10.0 : 0.2;
      x[i] = s * scale * rng.NextGaussian() /
             std::sqrt(static_cast<double>(x.dim()));
    }
    if (fn->Eval(x) > 0.0) continue;
    ++quiescent;
    RealVector s = e;
    s += x;
    const double q0 = multi->EvaluateMember(0, s);
    const double q1 = multi->EvaluateMember(1, s);
    ASSERT_GE(q0, t0.lo - 1e-6 * std::fabs(t0.lo));
    ASSERT_LE(q0, t0.hi + 1e-6 * std::fabs(t0.hi));
    ASSERT_GE(q1, t1.lo - 1e-6 * (1.0 + std::fabs(t1.lo)));
    ASSERT_LE(q1, t1.hi + 1e-6 * (1.0 + std::fabs(t1.hi)));
  }
  EXPECT_GT(quiescent, 20);
}

TEST(MultiQuery, EndToEndBothGuaranteesUnderFgm) {
  WorldCupConfig wc;
  wc.sites = 5;
  wc.total_updates = 25000;
  wc.duration = 8000.0;
  const auto trace = GenerateWorldCupTrace(wc);

  auto multi = MakeSelfJoinPlusVariance(0.2);
  FgmConfig config;
  FgmProtocol protocol(multi.get(), 5, config);

  RealVector truth(multi->dimension());
  std::vector<CellUpdate> deltas;
  SlidingWindowStream events(&trace, 1500.0);
  int64_t n = 0;
  while (const StreamRecord* rec = events.Next()) {
    deltas.clear();
    multi->MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) truth[u.index] += u.delta / 5.0;
    if (++n % 50 == 0 && protocol.BoundsCertified()) {
      const RealVector& e = protocol.GlobalEstimate();
      for (size_t m = 0; m < multi->member_count(); ++m) {
        const ThresholdPair t = multi->MemberThresholds(m, e);
        const double q = multi->EvaluateMember(m, truth);
        ASSERT_GE(q, t.lo - 1e-6 * (1.0 + std::fabs(t.lo))) << "member " << m;
        ASSERT_LE(q, t.hi + 1e-6 * (1.0 + std::fabs(t.hi))) << "member " << m;
      }
    }
  }
  EXPECT_GT(protocol.rounds(), 2);
}

}  // namespace
}  // namespace fgm
