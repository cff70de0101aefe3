#include "core/fgm_site.h"

#include <cmath>

#include "util/check.h"

namespace fgm {

void FgmSite::BeginRound(const SafeFunction* fn) {
  FGM_CHECK(fn != nullptr);
  // Wrapped with the FGM_PARANOID cross-check when the env var is set.
  evaluator_ = MakeCheckedEvaluator(fn, fn->MakeEvaluator());
  lambda_ = 1.0;
  quantum_ = 1.0;
  z_ = 0.0;
  counter_ = 0;
  updates_since_flush_ = 0;
  updates_in_round_ = 0;
  log_.Reset();
  last_value_ = CurrentValue();
}

void FgmSite::ResyncRound(const SafeFunction* fn, double lambda,
                          double theta) {
  FGM_CHECK(fn != nullptr);
  FGM_CHECK_GT(theta, 0.0);
  // Replay the surviving drift into a fresh evaluator for the delivered
  // reference, one delta per non-zero entry (the same reconstruction the
  // coordinator's verbatim-flush path uses).
  const RealVector drift =
      evaluator_ != nullptr ? evaluator_->drift() : RealVector(dim_);
  evaluator_ = MakeCheckedEvaluator(fn, fn->MakeEvaluator());
  for (size_t i = 0; i < drift.dim(); ++i) {
    if (drift[i] != 0.0) evaluator_->ApplyDelta(i, drift[i]);
  }
  lambda_ = lambda;
  quantum_ = theta;
  last_value_ = CurrentValue();
  z_ = last_value_;
  value_min_ = z_;
  value_max_ = z_;
  counter_ = 0;
}

void FgmSite::SetLambda(double lambda) {
  lambda_ = lambda;
  last_value_ = CurrentValue();
}

void FgmSite::BeginSubround(double quantum) {
  FGM_CHECK_GT(quantum, 0.0);
  quantum_ = quantum;
  z_ = last_value_;
  value_min_ = z_;
  value_max_ = z_;
  counter_ = 0;
}

int64_t FgmSite::Process(const ContinuousQuery& query,
                         const StreamRecord& record, WallTimer* sketch_timer,
                         WallTimer* safe_fn_timer) {
  deltas_.clear();
  {
    ScopedTimer timed(sketch_timer);
    query.MapRecord(record, &deltas_);
  }
  ScopedTimer timed(safe_fn_timer);
  return ApplyUpdate(record, deltas_);
}

int64_t FgmSite::ApplyUpdate(const StreamRecord& record,
                             const std::vector<CellUpdate>& deltas) {
  log_.Record(record, dim_);
  return ApplyDeltas(deltas);
}

int64_t FgmSite::ApplyUpdate(const std::vector<CellUpdate>& deltas) {
  // An update the log does not see desynchronizes it from the drift; the
  // record-taking overload keeps it live.
  log_.Invalidate();
  return ApplyDeltas(deltas);
}

int64_t FgmSite::ApplyDeltas(const std::vector<CellUpdate>& deltas) {
  for (const CellUpdate& u : deltas) evaluator_->ApplyDelta(u.index, u.delta);
  ++updates_since_flush_;
  ++updates_in_round_;
  const double v = CurrentValue();
  last_value_ = v;
  if (v < value_min_) value_min_ = v;
  if (v > value_max_) value_max_ = v;
  const double steps = std::floor((v - z_) / quantum_);
  // Counters only move up (max in the paper's update rule); a site whose
  // φ-value recedes stays silent.
  if (steps > static_cast<double>(counter_)) {
    const int64_t candidate = static_cast<int64_t>(steps);
    const int64_t increment = candidate - counter_;
    counter_ = candidate;
    return increment;
  }
  return 0;
}

void FgmSite::FlushReset() {
  evaluator_->Reset();
  updates_since_flush_ = 0;
  log_.Reset();
  last_value_ = CurrentValue();
}

}  // namespace fgm
