#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/fgm_protocol.h"
#include "hier/hier_protocol.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int64_t SubroundsOf(const fgm::MonitoringProtocol& protocol) {
  if (auto* flat = dynamic_cast<const fgm::FgmProtocol*>(&protocol)) {
    return flat->subrounds();
  }
  if (auto* tree = dynamic_cast<const fgm::HierFgmProtocol*>(&protocol)) {
    return tree->subrounds();
  }
  return 0;
}

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(1);
}

/// Fills `batch` with up to `size` events; false once the stream is dry.
bool NextBatch(fgm::SlidingWindowStream* events,
               std::vector<fgm::StreamRecord>* batch, size_t size) {
  batch->clear();
  while (batch->size() < size) {
    const fgm::StreamRecord* rec = events->Next();
    if (rec == nullptr) break;
    batch->push_back(*rec);
  }
  return !batch->empty();
}

/// Maps a batch into `cells`, one `ends` entry per record. Both buffers
/// are reserved by the caller: AgmsProjection::Map reserves exactly
/// size()+depth, so an under-reserved buffer would reallocate on every
/// record and turn the replay quadratic.
void MapBatch(const fgm::ContinuousQuery& query,
              const std::vector<fgm::StreamRecord>& batch,
              std::vector<fgm::CellUpdate>* cells,
              std::vector<size_t>* ends) {
  cells->clear();
  ends->clear();
  for (const fgm::StreamRecord& rec : batch) {
    query.MapRecord(rec, cells);
    ends->push_back(cells->size());
  }
}

}  // namespace

LayerReplay::LayerReplay(const fgm::RunConfig& config,
                         const std::vector<fgm::StreamRecord>& trace,
                         int64_t flush_every)
    : query_(fgm::MakeQuery(config)),
      mid_state_(query_->dimension()),
      drain_(&trace, config.window_seconds),
      clocked_(&trace, config.window_seconds),
      feed_(&trace, config.window_seconds),
      flush_every_(std::max<int64_t>(flush_every, 1)),
      until_flush_(flush_every_) {
  batch_.reserve(kBatch);
  // Both sketch queries touch `depth` cells per record; twice that leaves
  // headroom for any query the replay might meet.
  cells_.reserve(kBatch * 2 * static_cast<size_t>(config.depth));
  cells_capacity_ = cells_.capacity();
  ends_.reserve(kBatch);

  // The mid-stream state the safe function is centred on: the first half
  // of the events, mapped off the clock.
  int64_t events = 0;
  {
    fgm::SlidingWindowStream count(&trace, config.window_seconds);
    while (count.Next() != nullptr) ++events;
  }
  if (events == 0) Die("empty event stream");
  const double inv_k = 1.0 / static_cast<double>(config.sites);
  fgm::SlidingWindowStream first_half(&trace, config.window_seconds);
  for (int64_t left = events / 2; left > 0;) {
    NextBatch(&first_half, &batch_,
              static_cast<size_t>(std::min<int64_t>(left, kBatch)));
    left -= static_cast<int64_t>(batch_.size());
    MapBatch(*query_, batch_, &cells_, &ends_);
    for (const fgm::CellUpdate& u : cells_) {
      mid_state_[u.index] += inv_k * u.delta;
    }
  }

  fn_ = query_->MakeSafeFunction(mid_state_);
  const double at_zero = fn_->AtZero();
  const double quantum = at_zero < 0.0 ? -0.5 * at_zero : 1.0;
  sites_.reserve(static_cast<size_t>(config.sites));
  for (int i = 0; i < config.sites; ++i) {
    evaluators_.push_back(fn_->MakeEvaluator());
    sites_.emplace_back(i, query_->dimension());
    sites_.back().BeginRound(fn_.get());
    sites_.back().BeginSubround(quantum);
  }
  if (config.metrics != nullptr) {
    sketch_timer_ = config.metrics->GetTimer("sketch_update");
    safe_fn_timer_ = config.metrics->GetTimer("safe_fn_eval");
  }
}

void LayerReplay::Step(size_t events) {
  // Window iterator: Next() alone.
  Clock::time_point t0 = Clock::now();
  size_t drained = 0;
  while (drained < events && drain_.Next() != nullptr) ++drained;
  Clock::time_point t1 = Clock::now();
  stream_s_ += Seconds(t0, t1);

  // The same iterator with a clock read after every Next(), as the traced
  // loop reads it: the difference prices one read between calls, lost
  // instruction overlap included.
  t0 = Clock::now();
  size_t clocked = 0;
  while (clocked < events && clocked_.Next() != nullptr) {
    ++clocked;
    (void)Clock::now();
  }
  t1 = Clock::now();
  clocked_s_ += Seconds(t0, t1);

  if (!NextBatch(&feed_, &batch_, events)) return;
  if (batch_.size() != drained || clocked != drained) {
    Die("replay streams diverged");
  }
  events_ += static_cast<int64_t>(batch_.size());

  // MapRecord into the pre-reserved cell buffer.
  t0 = Clock::now();
  MapBatch(*query_, batch_, &cells_, &ends_);
  t1 = Clock::now();
  map_s_ += Seconds(t0, t1);
  if (cells_.capacity() != cells_capacity_) Die("map buffer reallocated");
  cells_total_ += static_cast<int64_t>(cells_.size());

  // Per-site evaluators over the pre-mapped cells.
  t0 = Clock::now();
  size_t begin = 0;
  for (size_t j = 0; j < batch_.size(); ++j) {
    fgm::DriftEvaluator& ev =
        *evaluators_[static_cast<size_t>(batch_[j].site)];
    for (size_t c = begin; c < ends_[j]; ++c) {
      ev.ApplyDelta(cells_[c].index, cells_[c].delta);
    }
    value_sum_ += ev.ValueAtScale(1.0);
    begin = ends_[j];
  }
  t1 = Clock::now();
  eval_s_ += Seconds(t0, t1);

  // The full FgmSite::Process path (which maps for itself), flushing the
  // sites off the clock at the run's cadence.
  for (size_t from = 0; from < batch_.size();) {
    const size_t to = std::min(
        batch_.size(), from + static_cast<size_t>(until_flush_));
    t0 = Clock::now();
    for (size_t j = from; j < to; ++j) {
      const fgm::StreamRecord& rec = batch_[j];
      increments_ += sites_[static_cast<size_t>(rec.site)].Process(
          *query_, rec, sketch_timer_, safe_fn_timer_);
    }
    process_s_ += Seconds(t0, Clock::now());
    until_flush_ -= static_cast<int64_t>(to - from);
    if (until_flush_ == 0) {
      for (fgm::FgmSite& site : sites_) site.FlushReset();
      until_flush_ = flush_every_;
    }
    from = to;
  }
}

LayerTimes LayerReplay::Times() {
  if (events_ == 0 || drain_.Next() != nullptr) {
    Die("the replay did not step through the whole stream");
  }
  LayerTimes out;
  const double events = static_cast<double>(events_);
  out.stream_next_ns = stream_s_ * 1e9 / events;
  out.delete_frac = static_cast<double>(drain_.deletes()) / events;
  out.map_ns = map_s_ * 1e9 / events;
  out.cells_per_event = static_cast<double>(cells_total_) / events;
  out.eval_ns = eval_s_ * 1e9 / events;
  out.site_process_ns = process_s_ * 1e9 / events;
  out.clock_ns = (clocked_s_ - stream_s_) * 1e9 / events;

  // MakeSafeFunction + MakeEvaluator: doubling batches until one batch
  // runs long enough to time on its own.
  for (int64_t reps = 1;; reps *= 2) {
    const Clock::time_point t0 = Clock::now();
    for (int64_t r = 0; r < reps; ++r) {
      query_->MakeSafeFunction(mid_state_)->MakeEvaluator();
    }
    const double s = Seconds(t0, Clock::now());
    if (s >= 0.05 || reps >= (int64_t{1} << 20)) {
      out.build_us = s * 1e6 / static_cast<double>(reps);
      break;
    }
  }
  // Keeps the replayed work observable.
  std::fprintf(stderr, "perfbench: replay checksum %.6g, %lld increments\n",
               value_sum_, static_cast<long long>(increments_));
  return out;
}

LoopProfile TracedLoop(const fgm::RunConfig& config,
                       const std::vector<fgm::StreamRecord>& trace,
                       LayerReplay* replay) {
  if (config.check_every <= 0 || config.count_window > 0 ||
      config.threads > 1) {
    Die("the traced loop replicates checked, time-windowed serial runs only");
  }
  LoopProfile p;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<fgm::ContinuousQuery> query = fgm::MakeQuery(config);
  std::unique_ptr<fgm::MonitoringProtocol> protocol =
      fgm::MakeProtocol(config, query.get());
  fgm::RealVector truth(query->dimension());
  const double inv_k = 1.0 / static_cast<double>(config.sites);
  std::vector<fgm::CellUpdate> deltas;
  fgm::SlidingWindowStream events(&trace, config.window_seconds);
  p.sync_us.reserve(1 << 16);

  int64_t n = 0;
  int64_t msgs = protocol->traffic().total_messages();
  double paused_s = 0.0;
  Clock::time_point t0 = Clock::now();
  p.construct_s = Seconds(start, t0);
  // Reads inside the span: `start`, `t0` and `end`, then t1..t3 per event
  // (t1 alone for the final empty Next) and t4 per certified check.
  p.clock_reads = 4;
  while (true) {
    const fgm::StreamRecord* rec = events.Next();
    const Clock::time_point t1 = Clock::now();
    p.stream_s += Seconds(t0, t1);
    if (rec == nullptr) {
      t0 = t1;
      break;
    }

    protocol->ProcessRecord(*rec);
    const Clock::time_point t2 = Clock::now();
    const double process_s = Seconds(t1, t2);
    // Only ProcessRecord and Finish move messages.
    const int64_t msgs_after = protocol->traffic().total_messages();
    if (msgs_after != msgs) {
      msgs = msgs_after;
      p.sync_s += process_s;
      p.sync_us.push_back(process_s * 1e6);
    } else {
      p.quiet_s += process_s;
      ++p.quiet_calls;
    }
    ++n;

    deltas.clear();
    query->MapRecord(*rec, &deltas);
    for (const fgm::CellUpdate& u : deltas) truth[u.index] += inv_k * u.delta;
    Clock::time_point t3 = Clock::now();
    p.truth_map_s += Seconds(t2, t3);

    if (n % config.check_every == 0 && protocol->BoundsCertified()) {
      const double q = query->Evaluate(truth);
      const fgm::ThresholdPair t = protocol->CurrentThresholds();
      const double margin = std::max(0.5 * (t.hi - t.lo), 1e-12);
      const double overshoot =
          std::max(std::max(q - t.hi, t.lo - q), 0.0) / margin;
      p.max_overshoot = std::max(p.max_overshoot, overshoot);
      if (overshoot > 0.0) ++p.violating_checks;
      ++p.fingerprint.certified_checks;
      ++p.clock_reads;
      const Clock::time_point t4 = Clock::now();
      p.truth_eval_s += Seconds(t3, t4);
      t3 = t4;
    }
    if (n % static_cast<int64_t>(LayerReplay::kBatch) == 0) {
      // Off the loop's clock: the replays step through the same events.
      replay->Step(LayerReplay::kBatch);
      const Clock::time_point resume = Clock::now();
      paused_s += Seconds(t3, resume);
      t3 = resume;
    }
    t0 = t3;
  }
  protocol->Finish();
  const Clock::time_point end = Clock::now();
  p.finish_s = Seconds(t0, end);
  p.wall_s = Seconds(start, end) - paused_s;
  replay->Step(static_cast<size_t>(n) % LayerReplay::kBatch);

  p.clock_reads += 3 * n;
  p.fingerprint.events = n;
  p.fingerprint.rounds = protocol->rounds();
  p.fingerprint.subrounds = SubroundsOf(*protocol);
  p.fingerprint.total_words = protocol->traffic().total_words();
  return p;
}

double ReplayedLoopS(const LoopProfile& loop, const LayerTimes& layers) {
  const double events = static_cast<double>(loop.fingerprint.events);
  const double replayed_ns =
      (events + 1.0) * layers.stream_next_ns + events * layers.map_ns +
      static_cast<double>(loop.quiet_calls) * layers.site_process_ns +
      static_cast<double>(loop.clock_reads) * layers.clock_ns;
  return replayed_ns * 1e-9 + loop.construct_s + loop.sync_s +
         loop.truth_eval_s + loop.finish_s;
}

}  // namespace perfbench
