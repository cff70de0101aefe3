#include "safezone/safe_function.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace fgm {

double PerspectiveEval(const SafeFunction& fn, const RealVector& x,
                       double lambda) {
  FGM_CHECK_GT(lambda, 0.0);
  if (lambda == 1.0) return fn.Eval(x);
  RealVector scaled = x;
  scaled *= 1.0 / lambda;
  return lambda * fn.Eval(scaled);
}

double NaiveDriftEvaluator::ValueAtScale(double lambda) const {
  return PerspectiveEval(*fn_, x_, lambda);
}

ParanoidDriftEvaluator::ParanoidDriftEvaluator(
    const SafeFunction* fn, std::unique_ptr<DriftEvaluator> inner,
    int64_t period)
    : fn_(fn), inner_(std::move(inner)), period_(period) {
  FGM_CHECK(fn_ != nullptr);
  FGM_CHECK(inner_ != nullptr);
  FGM_CHECK_GE(period_, 1);
}

void ParanoidDriftEvaluator::ApplyDelta(size_t index, double delta) {
  inner_->ApplyDelta(index, delta);
  if (++since_check_ >= period_) {
    since_check_ = 0;
    CrossCheck();
  }
}

void ParanoidDriftEvaluator::Reset() {
  inner_->Reset();
  since_check_ = 0;
}

void ParanoidDriftEvaluator::CrossCheck() const {
  const double incremental = inner_->Value();
  const double reference = fn_->Eval(inner_->drift());
  // The incremental value accumulates one rounding per delta; allow a
  // generous relative band around the reference before declaring the
  // maintenance broken.
  const double tol = 1e-6 * std::max(1.0, std::fabs(reference));
  if (!(std::fabs(incremental - reference) <= tol)) {
    FGM_CHECK(false &&
              "FGM_PARANOID: incremental safe-function value diverged from "
              "the reference evaluation");
  }
}

std::unique_ptr<DriftEvaluator> MakeCheckedEvaluator(
    const SafeFunction* fn, std::unique_ptr<DriftEvaluator> inner) {
  // Read the environment on every call (rounds are rare; this is not a
  // hot path) so tests can toggle the mode within one process.
  const char* env = std::getenv("FGM_PARANOID");
  if (env == nullptr || env[0] == '\0') return inner;
  const long long parsed = std::strtoll(env, nullptr, 10);
  const int64_t period = parsed > 0 ? static_cast<int64_t>(parsed) : 64;
  return std::make_unique<ParanoidDriftEvaluator>(fn, std::move(inner),
                                                  period);
}

}  // namespace fgm
