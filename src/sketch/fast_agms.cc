#include "sketch/fast_agms.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace fgm {

AgmsProjection::AgmsProjection(int depth, int width, uint64_t seed)
    : depth_(depth), width_(width) {
  FGM_CHECK_GE(depth, 1);
  FGM_CHECK_GE(width, 1);
  Xoshiro256ss rng(seed);
  bucket_.reserve(static_cast<size_t>(depth));
  sign_.reserve(static_cast<size_t>(depth));
  for (int r = 0; r < depth; ++r) {
    bucket_.emplace_back(rng, static_cast<uint32_t>(width));
    sign_.emplace_back(rng);
  }
}

void AgmsProjection::Map(uint64_t key, double weight,
                         std::vector<CellUpdate>* out) const {
  for (int r = 0; r < depth_; ++r) {
    const uint32_t b = Bucket(r, key);
    const int s = Sign(r, key);
    out->push_back(CellUpdate{CellIndex(r, b), s * weight});
  }
}

FastAgms::FastAgms(std::shared_ptr<const AgmsProjection> projection)
    : projection_(std::move(projection)),
      state_(projection_->dimension()) {}

void FastAgms::Update(uint64_t key, double weight) {
  const AgmsProjection& p = *projection_;
  for (int r = 0; r < p.depth(); ++r) {
    state_[p.CellIndex(r, p.Bucket(r, key))] += p.Sign(r, key) * weight;
  }
}

void FastAgms::UpdateBatch(const uint64_t* keys, const double* weights,
                           size_t count) {
  const AgmsProjection& p = *projection_;
  const int d = p.depth();
  for (int r = 0; r < d; ++r) {
    // A cell is owned by exactly one row, so processing the batch one row
    // at a time preserves the per-cell addition order of Update().
    for (size_t i = 0; i < count; ++i) {
      state_[p.CellIndex(r, p.Bucket(r, keys[i]))] +=
          p.Sign(r, keys[i]) * weights[i];
    }
  }
}

double FastAgms::SelfJoinEstimate() const {
  return fgm::SelfJoinEstimate(*projection_, state_);
}

double FastAgms::JoinEstimate(const FastAgms& a, const FastAgms& b) {
  FGM_CHECK_EQ(a.projection_.get(), b.projection_.get());
  return fgm::JoinEstimate(*a.projection_, a.state_, b.state_);
}

double Median(std::vector<double> values) {
  FGM_CHECK(!values.empty());
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double hi = values[mid];
  const double lo =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double SelfJoinEstimate(const AgmsProjection& projection,
                        const RealVector& state) {
  FGM_CHECK_EQ(state.dim(), projection.dimension());
  const int d = projection.depth();
  const int w = projection.width();
  std::vector<double> rows(static_cast<size_t>(d));
  for (int r = 0; r < d; ++r) {
    double acc = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      const double x = state[base + static_cast<size_t>(j)];
      acc += x * x;
    }
    rows[static_cast<size_t>(r)] = acc;
  }
  return Median(std::move(rows));
}

double JoinEstimate(const AgmsProjection& projection, const RealVector& s1,
                    const RealVector& s2) {
  FGM_CHECK_EQ(s1.dim(), projection.dimension());
  FGM_CHECK_EQ(s2.dim(), projection.dimension());
  const int d = projection.depth();
  const int w = projection.width();
  std::vector<double> rows(static_cast<size_t>(d));
  for (int r = 0; r < d; ++r) {
    double acc = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      acc += s1[base + static_cast<size_t>(j)] * s2[base + static_cast<size_t>(j)];
    }
    rows[static_cast<size_t>(r)] = acc;
  }
  return Median(std::move(rows));
}

double JoinEstimateConcatenated(const AgmsProjection& projection,
                                const RealVector& s1s2) {
  const size_t dim = projection.dimension();
  FGM_CHECK_EQ(s1s2.dim(), 2 * dim);
  const int d = projection.depth();
  const int w = projection.width();
  std::vector<double> rows(static_cast<size_t>(d));
  for (int r = 0; r < d; ++r) {
    double acc = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      acc += s1s2[base + static_cast<size_t>(j)] *
             s1s2[dim + base + static_cast<size_t>(j)];
    }
    rows[static_cast<size_t>(r)] = acc;
  }
  return Median(std::move(rows));
}

}  // namespace fgm
