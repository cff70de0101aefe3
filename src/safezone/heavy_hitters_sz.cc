#include "safezone/heavy_hitters_sz.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/check.h"

namespace fgm {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

// Lazy-heap evaluator: tracks val_i = E_i + x_i, the total drift t = Σx,
// a min-heap over the heavy group (for max of -val) and a max-heap over
// the light group. Stale heap entries are discarded on read.
class HeavyHitterEvaluator : public VectorDriftEvaluator {
 public:
  explicit HeavyHitterEvaluator(const HeavyHitterSafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()), fn_(fn) {
    Reset();
  }

  void ApplyDelta(size_t index, double delta) override {
    x_[index] += delta;
    total_ += delta;
    values_[index] += delta;
    if (fn_->heavy_[index]) {
      heavy_min_.push({values_[index], index});
    } else {
      light_max_.push({values_[index], index});
    }
  }

  double Value() const override { return ValueAtScale(1.0); }

  double ValueAtScale(double lambda) const override {
    if (lambda == 1.0) {
      return fn_->Compose(-HeavyMin(), LightMax(), total_, 1.0);
    }
    // The λ-scaled maxima reorder the items; fall back to a scan.
    double max_heavy_neg = kNegInf, max_light = kNegInf;
    for (size_t i = 0; i < x_.dim(); ++i) {
      const double v = lambda * fn_->reference_[i] + x_[i];
      if (fn_->heavy_[i]) {
        max_heavy_neg = std::max(max_heavy_neg, -v);
      } else {
        max_light = std::max(max_light, v);
      }
    }
    return fn_->Compose(max_heavy_neg, max_light, total_, lambda);
  }

  void Reset() override {
    x_.SetZero();
    total_ = 0.0;
    values_.assign(fn_->dimension(), 0.0);
    heavy_min_ = {};
    light_max_ = {};
    for (size_t i = 0; i < fn_->dimension(); ++i) {
      values_[i] = fn_->reference_[i];
      if (fn_->heavy_[i]) {
        heavy_min_.push({values_[i], i});
      } else {
        light_max_.push({values_[i], i});
      }
    }
  }

 private:
  struct Entry {
    double value;
    size_t index;
  };
  struct MinOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.value > b.value;  // min-heap
    }
  };
  struct MaxOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.value < b.value;  // max-heap
    }
  };

  double HeavyMin() const {
    if (!fn_->has_heavy_) return -kNegInf;  // +inf → -max = -inf branch
    while (!heavy_min_.empty() &&
           heavy_min_.top().value != values_[heavy_min_.top().index]) {
      heavy_min_.pop();
    }
    FGM_CHECK(!heavy_min_.empty());
    return heavy_min_.top().value;
  }

  double LightMax() const {
    if (!fn_->has_light_) return kNegInf;
    while (!light_max_.empty() &&
           light_max_.top().value != values_[light_max_.top().index]) {
      light_max_.pop();
    }
    FGM_CHECK(!light_max_.empty());
    return light_max_.top().value;
  }

  const HeavyHitterSafeFunction* fn_;
  double total_ = 0.0;
  std::vector<double> values_;  // E_i + x_i
  mutable std::priority_queue<Entry, std::vector<Entry>, MinOrder> heavy_min_;
  mutable std::priority_queue<Entry, std::vector<Entry>, MaxOrder> light_max_;
};

HeavyHitterSafeFunction::HeavyHitterSafeFunction(RealVector reference,
                                                 double theta, double eps)
    : reference_(std::move(reference)), theta_(theta), eps_(eps) {
  FGM_CHECK(theta > 0.0 && theta < 1.0);
  FGM_CHECK(eps > 0.0 && eps < theta);
  const size_t d = reference_.dim();
  FGM_CHECK_GE(d, 2u);
  ref_total_ = reference_.Sum();
  FGM_CHECK_GT(ref_total_, 0.0);

  heavy_.assign(d, 0);
  const double cut = theta_ * ref_total_;
  for (size_t i = 0; i < d; ++i) {
    if (reference_[i] >= cut) {
      heavy_[i] = 1;
      has_heavy_ = true;
    } else {
      has_light_ = true;
    }
  }

  // Gradient norms are shared within each group (see header).
  const double dd = static_cast<double>(d);
  const double a = theta_ - eps_;
  const double b = theta_ + eps_;
  heavy_norm_ = std::sqrt(dd * a * a - 2.0 * a + 1.0);
  light_norm_ = std::sqrt(dd * b * b - 2.0 * b + 1.0);

  at_zero_ = Eval(RealVector(d));
  FGM_CHECK_LT(at_zero_, 0.0);
}

double HeavyHitterSafeFunction::Compose(double max_heavy_neg,
                                        double max_light,
                                        double drift_total,
                                        double lambda) const {
  const double n = lambda * ref_total_ + drift_total;
  double value = kNegInf;
  if (has_heavy_) {
    value = ((theta_ - eps_) * n + max_heavy_neg) / heavy_norm_;
  }
  if (has_light_) {
    value = std::max(value, (max_light - (theta_ + eps_) * n) / light_norm_);
  }
  return value;
}

double HeavyHitterSafeFunction::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), reference_.dim());
  double max_heavy_neg = kNegInf, max_light = kNegInf;
  double total = 0.0;
  for (size_t i = 0; i < x.dim(); ++i) {
    total += x[i];
    const double v = reference_[i] + x[i];
    if (heavy_[i]) {
      max_heavy_neg = std::max(max_heavy_neg, -v);
    } else {
      max_light = std::max(max_light, v);
    }
  }
  return Compose(max_heavy_neg, max_light, total, 1.0);
}

std::unique_ptr<DriftEvaluator> HeavyHitterSafeFunction::MakeEvaluator()
    const {
  return std::make_unique<HeavyHitterEvaluator>(this);
}

}  // namespace fgm
