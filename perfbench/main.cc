// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//
// --trace 0 times whole fgm::Run calls back to back for --seconds, over
// several seeded inputs, and prints the end-to-end metrics (each input's
// median time, pooled over the inputs). --trace 1 runs the traced pass:
// the benchmark's replica of the record loop with a clock at each layer
// boundary, which must reproduce the untraced run's fingerprint exactly,
// with single-layer replays stepped in lockstep that must account for its
// wall time; it prints the per-layer metrics. Human-readable lines come
// first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/runner.h"
#include "net/network.h"
#include "report.h"
#include "stream/worldcup.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <n> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  // Up to 19 digits always fits in 64 bits.
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) Usage("--seed takes an integer");
      args.seed = number;
      args.has_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 600) {
        Usage("--seconds takes an integer in [1, 600]");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t ExpectedEvents(const fgm::RunConfig& config,
                       const std::vector<fgm::StreamRecord>& trace) {
  // Every insert is deleted once its window expires, and the stream drains
  // the pending deletes after the last insert.
  const int64_t inserts = static_cast<int64_t>(trace.size());
  return config.window_seconds > 0.0 ? 2 * inserts : inserts;
}

/// Set-up: everything before fgm::Run, i.e. generating the input's trace.
std::vector<fgm::StreamRecord> Generate(const Input& in, double* setup_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<fgm::StreamRecord> trace = fgm::GenerateWorldCupTrace(in.trace);
  *setup_s = SecondsSince(t0);
  return trace;
}

/// Times `config` over `trace` once; reports gate failures on stdout.
struct TimedRun {
  fgm::RunResult result;
  double wall_s = 0.0;
  bool ok = true;
};

TimedRun RunOnce(const std::string& label, const fgm::RunConfig& config,
                 bool telemetry, const std::vector<fgm::StreamRecord>& trace) {
  Sinks sinks;
  const fgm::RunConfig with_sinks = WithSinks(config, telemetry, &sinks);
  TimedRun out;
  const Clock::time_point t0 = Clock::now();
  out.result = fgm::Run(with_sinks, trace);
  out.wall_s = SecondsSince(t0);
  const std::vector<std::string> failures =
      GateFailures(out.result, ExpectedEvents(config, trace));
  out.ok = failures.empty();
  std::printf("%s: %.4f s, %s%s\n", label.c_str(), out.wall_s,
              FingerprintOf(out.result).ToString().c_str(),
              out.ok ? "" : "  FAILED");
  for (const std::string& f : failures) std::printf("  gate: %s\n", f.c_str());
  return out;
}

int EndToEnd(const Workload& w, uint64_t seed, double seconds) {
  const int inputs = w.inputs_per_run;
  std::vector<fgm::RunResult> first(static_cast<size_t>(inputs));
  std::vector<std::vector<double>> walls(static_cast<size_t>(inputs));
  std::vector<double> setups;
  double max_overshoot = 0.0;
  int64_t failed = 0;
  // One pass over every input, then further runs of the inputs in turn
  // while the next run is expected to end within --seconds. Every run
  // regenerates its trace: set-up gets one sample per run and only one
  // trace is resident at a time.
  const Clock::time_point start = Clock::now();
  int64_t attempted = 0;
  while (attempted < inputs ||
         SecondsSince(start) * static_cast<double>(attempted + 1) /
                 static_cast<double>(attempted) <=
             seconds) {
    const int i = static_cast<int>(attempted % inputs);
    const Input in = MakeInput(w, seed, i);
    double setup_s = 0.0;
    const std::vector<fgm::StreamRecord> trace = Generate(in, &setup_s);
    setups.push_back(setup_s);
    const std::string label = "input " + std::to_string(in.seed) + " run " +
                              std::to_string(attempted / inputs + 1);
    TimedRun r = RunOnce(label, in.run, w.telemetry, trace);
    fgm::RunResult& reference = first[static_cast<size_t>(i)];
    if (attempted < inputs) {
      reference = r.result;
    } else if (!(FingerprintOf(r.result) == FingerprintOf(reference)) ||
               !SameTraffic(r.result.traffic, reference.traffic)) {
      std::printf("  gate: not deterministic: differs from its first run\n");
      r.ok = false;
    }
    walls[static_cast<size_t>(i)].push_back(r.wall_s);
    max_overshoot = std::max(max_overshoot, r.result.max_violation);
    ++attempted;
    if (!r.ok) ++failed;
  }

  // Pooled over the inputs, each weighing the same: every input adds its
  // events and its median wall time, and its words and checks, which are
  // deterministic per input.
  double events = 0.0;
  double wall = 0.0;
  double root_words = 0.0;
  double all_words = 0.0;
  int64_t certified = 0;
  int64_t checks = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    const fgm::RunResult& r = first[i];
    events += static_cast<double>(r.events);
    wall += Median(walls[i]);
    root_words += static_cast<double>(r.traffic.total_words());
    all_words += CommCostAllTiers(r) * static_cast<double>(r.events);
    certified += r.checks;
    checks += AttemptedChecks(r.events, w.run.check_every);
  }
  const double certified_frac =
      checks > 0 ? static_cast<double>(certified) / static_cast<double>(checks)
                 : 1.0;
  std::printf(
      "guarantee: %lld of %lld attempted checks certified "
      "(uncertified_frac %.6f); certified_overshoot %.6g of the margin\n",
      static_cast<long long>(certified), static_cast<long long>(checks),
      1.0 - certified_frac, max_overshoot);

  MetricSet m(EndToEndMetrics());
  m.Set("events_per_s", events / wall);
  m.Set("setup_s", Median(setups));
  m.Set("peak_rss_mb", PeakRssMb());
  m.Set("comm_cost", root_words / events);
  m.Set("comm_cost_all_tiers", all_words / events);
  m.Set("certified_frac", certified_frac);
  std::printf("%s: %d inputs, %lld runs, %lld failed\n%s", w.name.c_str(),
              inputs, static_cast<long long>(attempted),
              static_cast<long long>(failed), m.Table().c_str());
  std::printf("%s\n", ResultLine(failed == 0, attempted, failed, m).c_str());
  return 0;
}

/// A traced loop and the layer replays stepped in lockstep with it.
struct TracedPair {
  LoopProfile loop;
  LayerTimes layers;
  double accounted = 0.0;  ///< ReplayedLoopS / loop wall time
};

constexpr int kTracedPairs = 3;

int Traced(const Workload& w, uint64_t seed) {
  // The traced pass profiles the run's first input.
  const Input in = MakeInput(w, seed, 0);
  double setup_s = 0.0;
  const std::vector<fgm::StreamRecord> trace = Generate(in, &setup_s);
  std::printf("setup: %zu inserts in %.4f s\n", trace.size(), setup_s);
  int64_t attempted = 0;
  int64_t failed = 0;
  auto count = [&](bool ok) {
    ++attempted;
    if (!ok) ++failed;
  };

  // The untraced reference, exactly as the end-to-end pass runs it.
  const TimedRun ref = RunOnce("untraced", in.run, w.telemetry, trace);
  const Fingerprint want = FingerprintOf(ref.result);
  count(ref.ok);

  // The traced loop must reproduce it exactly, and the layer replays,
  // stepped in lockstep with it, must account for its wall time; of
  // kTracedPairs such loops, the one with the median accounting is
  // reported. The replays follow the reference run's mean flush cadence
  // (sites flush at every round end and rebalance) and attach the same
  // telemetry.
  const int64_t flush_every =
      ref.result.events /
      std::max<int64_t>(ref.result.rounds + ref.result.rebalances, 1);
  std::vector<TracedPair> pairs(kTracedPairs);
  for (TracedPair& pair : pairs) {
    Sinks replay_sinks;
    LayerReplay replay(WithSinks(in.run, w.telemetry, &replay_sinks), trace,
                       flush_every);
    Sinks sinks;
    pair.loop =
        TracedLoop(WithSinks(in.run, w.telemetry, &sinks), trace, &replay);
    pair.layers = replay.Times();
    pair.accounted = ReplayedLoopS(pair.loop, pair.layers) / pair.loop.wall_s;
    bool ok = pair.loop.fingerprint == want;
    std::printf("traced: %.4f s, %s, replays account for %.3f%s\n",
                pair.loop.wall_s, pair.loop.fingerprint.ToString().c_str(),
                pair.accounted,
                ok ? "" : "  FAILED: fingerprint differs from untraced");
    if (pair.loop.violating_checks > 0) {
      std::printf(
          "  gate: %lld of %lld certified checks violate\n",
          static_cast<long long>(pair.loop.violating_checks),
          static_cast<long long>(pair.loop.fingerprint.certified_checks));
      ok = false;
    }
    count(ok);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const TracedPair& a, const TracedPair& b) {
              return a.accounted < b.accounted;
            });
  const TracedPair& median = pairs[pairs.size() / 2];
  const LoopProfile& loop = median.loop;
  const LayerTimes& layers = median.layers;
  const double accounted = median.accounted;
  if (std::fabs(accounted - 1.0) > 0.1) {
    std::printf("  gate: the layer replays account for %.3f of the loop\n",
                accounted);
  }
  count(std::fabs(accounted - 1.0) <= 0.1);

  // Telemetry detached: the cost of the always-on sinks, and the proof
  // that they do not steer the protocol.
  const TimedRun detached = RunOnce("sinks detached", in.run, false, trace);
  {
    const bool same = FingerprintOf(detached.result) == want &&
                      SameTraffic(detached.result.traffic, ref.result.traffic);
    if (!same) std::printf("  gate: detaching the sinks changed the run\n");
    count(detached.ok && same);
  }

  // Strict wire: every message encoded, decoded and verified. Traffic
  // must match the counting transport bit for bit.
  fgm::RunConfig strict_config = in.run;
  strict_config.strict_wire = true;
  const TimedRun strict = RunOnce("strict wire", strict_config, false, trace);
  {
    const bool same = FingerprintOf(strict.result) == want &&
                      SameTraffic(strict.result.traffic, ref.result.traffic);
    if (!same) std::printf("  gate: strict wire changed the traffic\n");
    count(strict.ok && same);
  }

  const fgm::RunResult& r = ref.result;
  const double events = static_cast<double>(r.events);
  const TopPercentile top = HighestSupportedPercentile(loop.sync_us);
  const double loop_s = loop.wall_s;

  MetricSet m(PerLayerMetrics());
  m.Set("stream.next_ns", layers.stream_next_ns);
  m.Set("stream.delete_frac", layers.delete_frac);
  m.Set("sketch.map_ns", layers.map_ns);
  m.Set("sketch.cells_per_event", layers.cells_per_event);
  m.Set("safezone.eval_ns", layers.eval_ns);
  m.Set("safezone.build_us", layers.build_us);
  m.Set("core.site_process_ns", layers.site_process_ns);
  m.Set("core.quiet_ns",
        loop.quiet_calls > 0
            ? loop.quiet_s * 1e9 / static_cast<double>(loop.quiet_calls)
            : 0.0);
  m.Set("core.sync_records", static_cast<double>(loop.sync_us.size()));
  m.Set("core.sync_share", loop.sync_s / loop_s);
  m.Set("core.sync_us_p50", Median(loop.sync_us));
  m.Set("core.sync_us_ptop", top.value);
  m.Set("core.sync_ptop_pct", top.percent);
  m.Set("core.rounds", static_cast<double>(r.rounds));
  m.Set("core.subrounds", static_cast<double>(r.subrounds));
  m.Set("core.rebalances", static_cast<double>(r.rebalances));
  m.Set("core.overflow_rounds", static_cast<double>(r.overflow_rounds));
  m.Set("core.full_fn_fraction", r.mean_full_function_fraction);

  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (spec.name.rfind("net.words.", 0) == 0) m.Set(spec.name, 0.0);
  }
  for (size_t i = 0; i < r.traffic.words_by_kind.size(); ++i) {
    const std::string name = std::string("net.words.") +
                             fgm::MsgKindName(static_cast<fgm::MsgKind>(i));
    const double words = static_cast<double>(r.traffic.words_by_kind[i]);
    if (m.Has(name)) {
      m.Set(name, words);
    } else if (words > 0) {
      std::printf("  note: %s (%.0f words) has no per-layer metric\n",
                  name.c_str(), words);
    }
  }
  m.Set("net.msgs_per_event",
        static_cast<double>(r.traffic.total_messages()) / events);
  m.Set("net.upstream_fraction", r.upstream_fraction);
  m.Set("net.serialize_overhead_frac", strict.wall_s / detached.wall_s - 1.0);

  m.Set("sim.delivered_msgs", static_cast<double>(r.net.delivered_msgs));
  m.Set("sim.dropped_msgs", static_cast<double>(r.net.dropped_msgs));
  m.Set("sim.retransmitted_msgs",
        static_cast<double>(r.net.retransmitted_msgs));
  m.Set("sim.timeouts", static_cast<double>(r.net.timeouts));
  m.Set("sim.stale_msgs", static_cast<double>(r.net.stale_msgs));
  m.Set("sim.resyncs", static_cast<double>(r.net.resyncs));
  m.Set("sim.max_in_flight_words",
        static_cast<double>(r.net.max_in_flight_words));

  // Flat runs have a single tier: the root star.
  std::vector<fgm::TrafficStats> tiers = r.tier_traffic;
  if (tiers.empty()) tiers.push_back(r.traffic);
  tiers.resize(std::max<size_t>(tiers.size(), 2));
  if (r.tier_traffic.size() > 2) {
    std::printf("  note: tiers beyond tier 1 have no per-layer metric\n");
  }
  for (int t = 0; t < 2; ++t) {
    const std::string prefix = "hier.tier" + std::to_string(t);
    m.Set(prefix + ".up_words",
          static_cast<double>(tiers[static_cast<size_t>(t)].upstream_words));
    m.Set(prefix + ".down_words",
          static_cast<double>(tiers[static_cast<size_t>(t)].downstream_words));
  }
  m.Set("hier.local_polls", static_cast<double>(r.local_polls));

  const int64_t certified = loop.fingerprint.certified_checks;
  m.Set("driver.truth_map_ns", loop.truth_map_s * 1e9 / events);
  m.Set("driver.truth_share", (loop.truth_map_s + loop.truth_eval_s) / loop_s);
  m.Set("driver.truth_eval_ns",
        certified > 0
            ? loop.truth_eval_s * 1e9 / static_cast<double>(certified)
            : 0.0);
  m.Set("driver.certified_checks", static_cast<double>(certified));
  m.Set("driver.violating_checks", static_cast<double>(loop.violating_checks));
  m.Set("driver.uncertified_frac",
        UncertifiedFrac(certified, r.events, w.run.check_every));
  m.Set("driver.certified_overshoot", loop.max_overshoot);

  m.Set("obs.overhead_frac", ref.wall_s / detached.wall_s - 1.0);
  m.Set("obs.alerts_raised", static_cast<double>(r.alerts_raised));
  m.Set("obs.alerts_cleared", static_cast<double>(r.alerts_cleared));
  m.Set("trace.overhead_frac", loop.wall_s / ref.wall_s - 1.0);
  m.Set("trace.accounted_frac", accounted);

  std::printf(
      "traced loop split (s): construct %.4f stream %.4f quiet %.4f sync %.4f "
      "truth_map %.4f truth_eval %.4f finish %.4f of %.4f\n",
      loop.construct_s, loop.stream_s, loop.quiet_s, loop.sync_s,
      loop.truth_map_s, loop.truth_eval_s, loop.finish_s, loop.wall_s);
  std::printf(
      "replayed (s): stream %.4f truth_map %.4f quiet %.4f clock %.4f "
      "(clock read %.1f ns)\n",
      (events + 1.0) * layers.stream_next_ns * 1e-9,
      events * layers.map_ns * 1e-9,
      static_cast<double>(loop.quiet_calls) * layers.site_process_ns * 1e-9,
      static_cast<double>(loop.clock_reads) * layers.clock_ns * 1e-9,
      layers.clock_ns);
  std::printf("sync calls: p%.4g = %.3f us with %lld of %lld samples beyond\n",
              top.percent, top.value, static_cast<long long>(top.beyond),
              static_cast<long long>(top.samples));
  std::printf("%s: traced pass, %lld runs, %lld failed\n%s", w.name.c_str(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed), m.Table().c_str());
  std::printf("%s\n", ResultLine(failed == 0, attempted, failed, m).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.workload.empty() || !args.has_seed || args.seconds <= 0.0 ||
      args.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  Workload w;
  if (!MakeWorkload(args.workload, &w)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("perfbench %s seed %llu\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed));
  return args.trace == 1 ? Traced(w, args.seed)
                         : EndToEnd(w, args.seed, args.seconds);
}
