// Fast-AGMS sketch tests: estimation accuracy, linearity, median logic.

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/fast_agms.h"
#include "util/rng.h"

namespace fgm {
namespace {

std::shared_ptr<const AgmsProjection> MakeProjection(int d, int w,
                                                     uint64_t seed) {
  return std::make_shared<const AgmsProjection>(d, w, seed);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(AgmsProjection, MapTouchesOneCellPerRow) {
  auto proj = MakeProjection(5, 64, 1);
  std::vector<CellUpdate> updates;
  proj->Map(12345, 2.0, &updates);
  ASSERT_EQ(updates.size(), 5u);
  for (int r = 0; r < 5; ++r) {
    const size_t idx = updates[static_cast<size_t>(r)].index;
    EXPECT_GE(idx, static_cast<size_t>(r) * 64);
    EXPECT_LT(idx, static_cast<size_t>(r + 1) * 64);
    EXPECT_DOUBLE_EQ(std::fabs(updates[static_cast<size_t>(r)].delta), 2.0);
  }
}

TEST(AgmsProjection, MapAppendsIntoOneVectorWithGeometricGrowth) {
  // Appending must leave growth to the vector: reserving exactly the next
  // record's cells on every call reallocates once per record.
  auto proj = MakeProjection(5, 64, 3);
  std::vector<CellUpdate> out;
  int capacity_changes = 0;
  size_t capacity = out.capacity();
  for (uint64_t key = 0; key < 100000; ++key) {
    proj->Map(key, 1.0, &out);
    if (out.capacity() != capacity) {
      ++capacity_changes;
      capacity = out.capacity();
    }
  }
  EXPECT_EQ(out.size(), 500000u);
  EXPECT_LE(capacity_changes, 64);
}

TEST(AgmsProjection, DeterministicForSeed) {
  auto a = MakeProjection(3, 32, 99);
  auto b = MakeProjection(3, 32, 99);
  for (uint64_t key = 0; key < 100; ++key) {
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(a->Bucket(r, key), b->Bucket(r, key));
      EXPECT_EQ(a->Sign(r, key), b->Sign(r, key));
    }
  }
}

TEST(FastAgms, UpdateMatchesMap) {
  auto proj = MakeProjection(3, 16, 5);
  FastAgms sketch(proj);
  FastAgms manual(proj);
  std::vector<CellUpdate> updates;
  for (uint64_t key = 0; key < 50; ++key) {
    sketch.Update(key, 1.0);
    updates.clear();
    proj->Map(key, 1.0, &updates);
    for (const CellUpdate& u : updates) {
      manual.mutable_state()[u.index] += u.delta;
    }
  }
  for (size_t i = 0; i < sketch.state().dim(); ++i) {
    EXPECT_DOUBLE_EQ(sketch.state()[i], manual.state()[i]);
  }
}

TEST(FastAgms, InsertDeleteCancels) {
  auto proj = MakeProjection(5, 32, 7);
  FastAgms sketch(proj);
  for (uint64_t key = 0; key < 100; ++key) sketch.Update(key, 1.0);
  for (uint64_t key = 0; key < 100; ++key) sketch.Update(key, -1.0);
  EXPECT_DOUBLE_EQ(sketch.state().SquaredNorm(), 0.0);
}

// The sketch estimate of a self-join must be within Θ(1/√w) relative
// error. Build a Zipf frequency vector and compare against the exact F2.
TEST(FastAgms, SelfJoinAccuracy) {
  auto proj = MakeProjection(7, 512, 11);
  FastAgms sketch(proj);
  Xoshiro256ss rng(123);
  ZipfDistribution zipf(5000, 1.1);
  std::map<uint64_t, double> freq;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = zipf.Sample(rng);
    sketch.Update(key, 1.0);
    freq[key] += 1.0;
  }
  double exact = 0.0;
  for (const auto& [key, f] : freq) {
    (void)key;
    exact += f * f;
  }
  const double estimate = sketch.SelfJoinEstimate();
  EXPECT_NEAR(estimate, exact, 0.25 * exact);
}

TEST(FastAgms, JoinAccuracy) {
  auto proj = MakeProjection(7, 512, 13);
  FastAgms a(proj), b(proj);
  Xoshiro256ss rng(321);
  ZipfDistribution zipf(2000, 1.0);
  std::map<uint64_t, double> fa, fb;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = zipf.Sample(rng);
    if (i % 3 == 0) {
      a.Update(key, 1.0);
      fa[key] += 1.0;
    } else {
      b.Update(key, 1.0);
      fb[key] += 1.0;
    }
  }
  double exact = 0.0;
  for (const auto& [key, f] : fa) {
    auto it = fb.find(key);
    if (it != fb.end()) exact += f * it->second;
  }
  const double estimate = FastAgms::JoinEstimate(a, b);
  EXPECT_NEAR(estimate, exact, 0.3 * exact);
}

TEST(FastAgms, EstimatesAreLinearInState) {
  // Sketching is linear: estimate of summed states equals estimate of
  // union stream. This is what lets protocols add drift vectors.
  auto proj = MakeProjection(5, 128, 17);
  FastAgms part1(proj), part2(proj), whole(proj);
  for (uint64_t key = 0; key < 3000; ++key) {
    const double weight = 1.0 + static_cast<double>(key % 3);
    if (key % 2 == 0) {
      part1.Update(key, weight);
    } else {
      part2.Update(key, weight);
    }
    whole.Update(key, weight);
  }
  RealVector sum = part1.state() + part2.state();
  EXPECT_NEAR(SelfJoinEstimate(*proj, sum), whole.SelfJoinEstimate(), 1e-6);
}

TEST(FastAgms, ConcatenatedJoinMatchesPair) {
  auto proj = MakeProjection(5, 64, 19);
  FastAgms a(proj), b(proj);
  for (uint64_t key = 0; key < 500; ++key) {
    a.Update(key, 1.0);
    b.Update(key * 3, 1.0);
  }
  RealVector concat(2 * proj->dimension());
  for (size_t i = 0; i < proj->dimension(); ++i) {
    concat[i] = a.state()[i];
    concat[proj->dimension() + i] = b.state()[i];
  }
  EXPECT_DOUBLE_EQ(JoinEstimateConcatenated(*proj, concat),
                   FastAgms::JoinEstimate(a, b));
}

TEST(FastAgms, UpdateBatchBitIdenticalToSerialUpdates) {
  auto projection = MakeProjection(5, 64, 0xBEEF);
  FastAgms serial(projection);
  FastAgms batched(projection);

  Xoshiro256ss rng(42);
  std::vector<uint64_t> keys;
  std::vector<double> weights;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back(rng.NextBounded(777));
    weights.push_back(static_cast<double>(rng.NextBounded(13)) - 6.0);
  }
  for (size_t i = 0; i < keys.size(); ++i) serial.Update(keys[i], weights[i]);
  batched.UpdateBatch(keys.data(), weights.data(), keys.size());

  for (size_t i = 0; i < serial.state().dim(); ++i) {
    EXPECT_EQ(serial.state()[i], batched.state()[i]) << "cell " << i;
  }
}

TEST(FastAgms, SelfJoinOfSingletonIsSquaredWeight) {
  auto proj = MakeProjection(3, 8, 23);
  FastAgms sketch(proj);
  sketch.Update(42, 3.0);
  EXPECT_DOUBLE_EQ(sketch.SelfJoinEstimate(), 9.0);
}

}  // namespace
}  // namespace fgm
