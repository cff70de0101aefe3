// FGM local-site state machine (§2.4, steps executed at sites).
//
// A site holds its drift vector X_i inside a DriftEvaluator for the safe
// function it was shipped this round (the full φ or the cheap bound b),
// tracks its φ-value, and raises counter increments
//     c_i := max{c_i, ⌊(φ(X_i) - z_i)/θ⌋}
// during subrounds. With rebalancing active the site monitors the
// perspective λφ(X_i/λ) instead (§4.1).

#ifndef FGM_CORE_FGM_SITE_H_
#define FGM_CORE_FGM_SITE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "stream/record.h"

namespace fgm {

class FgmSite {
 public:
  /// `dim` is the state dimension D, bounding the raw-update log the site
  /// keeps for the verbatim drift representation.
  FgmSite(int id, size_t dim) : id_(id), dim_(dim) {}

  int id() const { return id_; }

  /// Installs the safe function for a new round; drift resets to 0.
  void BeginRound(const SafeFunction* fn);

  /// Starts a subround with quantum θ > 0: records z_i, resets c_i.
  void BeginSubround(double quantum);

  /// Crash-recovery handshake (sim/ networks): rebuilds the evaluator for
  /// the re-shipped safe function while PRESERVING the accumulated drift
  /// — the drift and the raw-update log live in stable storage; only the
  /// evaluator's working state and the subround baseline were volatile.
  /// Re-baselines the counter at the current value under the delivered
  /// λ and θ.
  void ResyncRound(const SafeFunction* fn, double lambda, double theta);

  /// Installs a new rebalancing scale.
  void SetLambda(double lambda);

  /// Maps one local stream record through the query's sketch projection
  /// (into per-site scratch) and applies the resulting deltas; returns the
  /// counter increment to report (0 = stay silent). Timers may be null.
  /// FgmProtocol hands the driver's cells to ApplyUpdate instead; this
  /// self-mapping path times a site update on its own (perfbench, tests).
  int64_t Process(const ContinuousQuery& query, const StreamRecord& record,
                  WallTimer* sketch_timer, WallTimer* safe_fn_timer);

  /// Applies the deltas of one local stream update and returns the
  /// counter increment to report (0 = stay silent). The record is logged
  /// for the verbatim drift representation.
  int64_t ApplyUpdate(const StreamRecord& record,
                      const std::vector<CellUpdate>& deltas);

  /// Delta-only variant (unit tests); forfeits the verbatim
  /// representation for the current flush interval.
  int64_t ApplyUpdate(const std::vector<CellUpdate>& deltas);

  /// λφ(X_i/λ) as of the last update, round start, rescale or flush — a
  /// cache of CurrentValue() for the coordinator's per-subround reads,
  /// which would otherwise re-evaluate the safe function k times a poll.
  double last_value() const { return last_value_; }

  /// The value the site currently reports: λφ(X_i/λ).
  double CurrentValue() const { return evaluator_->ValueAtScale(lambda_); }

  /// Range (sup - inf) of the reported value during the current subround
  /// — the site's contribution to the ψ-variability of §2.5.1.
  double SubroundValueRange() const { return value_max_ - value_min_; }

  /// The current drift vector (flushed to the coordinator).
  const RealVector& drift() const { return evaluator_->drift(); }

  /// Builds the flush message for the coordinator: the update count plus
  /// the cheaper of the dense drift and the verbatim raw-update log.
  DriftFlushMsg MakeFlushMsg() const {
    return DriftFlushMsg::ForFlush(drift(), updates_since_flush_, log_);
  }

  /// Resets the drift to 0 after a flush; keeps round bookkeeping.
  void FlushReset();

  int64_t updates_since_flush() const { return updates_since_flush_; }
  int64_t updates_in_round() const { return updates_in_round_; }
  int64_t counter() const { return counter_; }

 private:
  /// Applies deltas + update counters, then runs the counter rule on the
  /// post-update value; returns the counter increment to report.
  int64_t ApplyDeltas(const std::vector<CellUpdate>& deltas);

  int id_;
  size_t dim_;
  RawUpdateLog log_;
  std::unique_ptr<DriftEvaluator> evaluator_;
  std::vector<CellUpdate> deltas_;  // per-site scratch for Process()
  double lambda_ = 1.0;
  double quantum_ = 1.0;
  double z_ = 0.0;
  double last_value_ = 0.0;  ///< see last_value()
  double value_min_ = 0.0;
  double value_max_ = 0.0;
  int64_t counter_ = 0;
  int64_t updates_since_flush_ = 0;
  int64_t updates_in_round_ = 0;
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_SITE_H_
