// The traced pass: the benchmark's own replica of fgm::Run's record loop
// with a clock at every layer boundary, plus batch-timed replays of single
// layers. Spans are timed from these files around calls into the library;
// nothing inside the library is instrumented.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fgm_site.h"
#include "driver/runner.h"
#include "report.h"
#include "stream/record.h"
#include "stream/window.h"

namespace perfbench {

/// Batch-timed single-layer replay figures over the workload's events.
struct LayerTimes {
  double stream_next_ns = 0.0;
  double delete_frac = 0.0;
  double map_ns = 0.0;
  double cells_per_event = 0.0;
  double eval_ns = 0.0;
  double build_us = 0.0;
  double site_process_ns = 0.0;
  double clock_ns = 0.0;  ///< one steady_clock read between two calls
};

/// Replays each layer on its own over the event stream, one batch of
/// events at a time: the window iterator, MapRecord, per-site evaluators
/// of the safe function built at the mid-stream state (ApplyDelta over
/// pre-mapped cells + one ValueAtScale per event), and FgmSite::Process
/// with the telemetry timers of `config.metrics`, if set. The sites flush
/// every `flush_every` events, off the clock, as the run's rounds and
/// rebalances flush them: a site's raw-update log records only until it
/// outgrows the dense drift, so a never-flushed site would stop paying for
/// it. The clock is read once per batch and layer, never per call.
class LayerReplay {
 public:
  /// Builds the mid-stream safe function (an untimed pass over the first
  /// half of the events) and the replay sites.
  LayerReplay(const fgm::RunConfig& config,
              const std::vector<fgm::StreamRecord>& trace,
              int64_t flush_every);

  /// Replays the next `events` events (at most kBatch) through every layer.
  void Step(size_t events);

  /// The replay figures once every event has been stepped through; also
  /// times MakeSafeFunction + MakeEvaluator.
  LayerTimes Times();

  /// Events per Step: large enough that two clock reads vanish against
  /// the batch, small enough that one batch's pre-mapped cells stay a few
  /// MB.
  static constexpr size_t kBatch = size_t{1} << 15;

 private:
  std::unique_ptr<fgm::ContinuousQuery> query_;
  fgm::RealVector mid_state_;
  std::unique_ptr<fgm::SafeFunction> fn_;
  std::vector<std::unique_ptr<fgm::DriftEvaluator>> evaluators_;
  std::vector<fgm::FgmSite> sites_;
  fgm::WallTimer* sketch_timer_ = nullptr;
  fgm::WallTimer* safe_fn_timer_ = nullptr;
  fgm::SlidingWindowStream drain_;    ///< timed: Next() only
  fgm::SlidingWindowStream clocked_;  ///< timed: Next() + a clock read
  fgm::SlidingWindowStream feed_;     ///< untimed: copies into batch_
  std::vector<fgm::StreamRecord> batch_;
  std::vector<fgm::CellUpdate> cells_;
  size_t cells_capacity_ = 0;
  std::vector<size_t> ends_;
  int64_t flush_every_;
  int64_t until_flush_;

  int64_t events_ = 0;
  int64_t cells_total_ = 0;
  double stream_s_ = 0.0;
  double clocked_s_ = 0.0;
  double map_s_ = 0.0;
  double eval_s_ = 0.0;
  double process_s_ = 0.0;
  double value_sum_ = 0.0;
  int64_t increments_ = 0;
};

/// Time and counts of one traced record loop. Every second of the loop is
/// attributed to exactly one segment: the clock reads are chained, each
/// one closing a segment and opening the next, so the segments sum to the
/// loop's wall time by construction.
struct LoopProfile {
  Fingerprint fingerprint;
  double wall_s = 0.0;        ///< protocol construction to Finish()
  double construct_s = 0.0;   ///< MakeQuery + MakeProtocol
  double stream_s = 0.0;      ///< SlidingWindowStream::Next
  double quiet_s = 0.0;       ///< ProcessRecord calls that sent nothing
  double sync_s = 0.0;        ///< ProcessRecord calls that moved messages
  double truth_map_s = 0.0;   ///< ground-truth MapRecord + accumulate
  double truth_eval_s = 0.0;  ///< certified Evaluate + threshold check
  double finish_s = 0.0;      ///< Finish(): draining in-flight messages
  int64_t quiet_calls = 0;
  int64_t clock_reads = 0;      ///< clock reads inside the timed span
  std::vector<double> sync_us;  ///< one sample per message-moving call
  int64_t violating_checks = 0;
  double max_overshoot = 0.0;
};

/// Drives `trace` through MakeQuery/MakeProtocol, the window iterator,
/// ProcessRecord, the ground-truth map/evaluate and Finish exactly as
/// fgm::Run does for `config` (no file outputs, serial engine). Every
/// LayerReplay::kBatch events the loop's clock pauses while `replay`
/// steps through the same events, so the loop and the replays run under
/// the same host conditions; the paused time is not part of the loop.
LoopProfile TracedLoop(const fgm::RunConfig& config,
                       const std::vector<fgm::StreamRecord>& trace,
                       LayerReplay* replay);

/// The traced loop's wall time rebuilt from numbers measured apart from
/// its stream, truth-map and quiet segments: the replays' per-event
/// times (one Next per event plus the final empty one, one truth
/// MapRecord per event, one FgmSite::Process per quiet call) and the
/// loop's clock reads, plus the segments no replay covers (construction,
/// message-moving calls, certified evaluations, Finish). A replay that
/// times the wrong work pulls it away from the loop's wall time.
double ReplayedLoopS(const LoopProfile& loop, const LayerTimes& layers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
