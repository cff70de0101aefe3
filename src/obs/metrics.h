// Named metrics registry: counters, gauges, running statistics,
// count histograms and wall-time timers, exportable as one JSON object.
//
// Like tracing, metrics are OFF by default and free when off: hot paths
// resolve their instrument pointers ONCE at construction (null when no
// registry is configured) and each use is a pointer test. A ScopedTimer
// on a null timer never reads the clock.

#ifndef FGM_OBS_METRICS_H_
#define FGM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/json.h"
#include "util/stats.h"

namespace fgm {

// Counter, gauge and timer mutators are lock-free atomics (relaxed:
// instruments are statistical accumulators, not synchronization points).
// The registry itself is mutex-guarded — Get* runs at construction time
// and WriteJson after the run, never on the hot path.

/// Monotone event count.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Accumulated wall time over many timed sections.
class WallTimer {
 public:
  void AddSeconds(double s) {
    total_seconds_.fetch_add(s, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  double total_seconds() const {
    return total_seconds_.load(std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> total_seconds_{0.0};
  std::atomic<int64_t> count_{0};
};

/// RAII section timer; a null timer costs one branch and never touches
/// the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(WallTimer* timer) : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (timer_ != nullptr) {
      timer_->AddSeconds(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  WallTimer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Registry of named instruments. Get* creates on first use and returns a
/// pointer that stays valid for the registry's lifetime, so hot paths can
/// resolve once and skip the map lookup thereafter.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  RunningStats* GetStats(const std::string& name);
  CountHistogram* GetHistogram(const std::string& name, int max_value = 64);
  WallTimer* GetTimer(const std::string& name);

  /// Serializes every instrument into `w` as one JSON object:
  /// {"counters":{..}, "gauges":{..}, "stats":{..}, "histograms":{..},
  ///  "timers":{..}}.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<RunningStats>> stats_;
  std::map<std::string, std::unique_ptr<CountHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<WallTimer>> timers_;
};

}  // namespace fgm

#endif  // FGM_OBS_METRICS_H_
