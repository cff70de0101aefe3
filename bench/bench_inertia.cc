// §4.1.3 "statistical inertia" claim: when the global state moves with
// roughly constant velocity, the FGM rebalancing protocol achieves round
// durations at least 1/2 of the ideal maximum (the ideal being the number
// of updates after which the global drift itself leaves the safe zone, so
// that *no* protocol could extend the round further).
//
// For every round we run an oracle alongside the protocol: starting from
// the round's E, the oracle feeds the very same global updates into a
// single safe-zone evaluator (drift scaled by 1/k) until φ crosses 0 —
// that is the ideal round budget τ*. The table reports the mean ratio of
// the actual round length to τ*, with and without rebalancing, and under
// skewed site rates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/fgm_protocol.h"
#include "query/query.h"
#include "stream/drift_stream.h"
#include "util/stats.h"
#include "util/table.h"

namespace fgm {
namespace bench {
namespace {

struct InertiaResult {
  double mean_ratio;
  double min_ratio;
  int64_t rounds;
};

// An oracle outlives its round: it keeps absorbing the global stream
// until its safe function really exits, giving the true ideal budget τ*
// even when the protocol's round ended earlier.
struct Oracle {
  std::unique_ptr<SafeFunction> fn;
  std::unique_ptr<DriftEvaluator> eval;
  int64_t ideal_updates = 0;
  int64_t round_updates = -1;  // set once the round it tracks has ended
};

InertiaResult Measure(const std::vector<StreamRecord>& trace, int sites,
                      double epsilon, bool rebalance) {
  FpNormQuery query(256, 2.0, epsilon, FpNormQuery::Mode::kTwoSided);
  FgmConfig config;
  config.rebalance = rebalance;
  FgmProtocol protocol(&query, sites, config);

  std::vector<Oracle> oracles;
  auto new_oracle = [&]() {
    Oracle o;
    o.fn = query.MakeSafeFunction(protocol.GlobalEstimate());
    o.eval = o.fn->MakeEvaluator();
    oracles.push_back(std::move(o));
  };
  new_oracle();

  int64_t round_updates = 0;
  int64_t rounds_seen = protocol.rounds();
  RunningStats ratios;
  std::vector<CellUpdate> deltas;
  const double inv_k = 1.0 / static_cast<double>(sites);
  // Ignore the cold-start phase: only rounds with a decent ideal budget
  // say anything about steady-state behaviour.
  constexpr int64_t kMinIdeal = 100;

  for (const StreamRecord& rec : trace) {
    deltas.clear();
    query.MapRecord(rec, &deltas);
    protocol.ProcessRecord(rec, deltas);
    ++round_updates;
    for (size_t j = 0; j < oracles.size();) {
      Oracle& o = oracles[j];
      for (const CellUpdate& u : deltas) {
        o.eval->ApplyDelta(u.index, inv_k * u.delta);
      }
      if (o.eval->Value() < 0.0) {
        ++o.ideal_updates;
        ++j;
        continue;
      }
      // The global drift exited this oracle's zone: its budget is final.
      if (o.round_updates >= 0) {
        if (o.ideal_updates >= kMinIdeal) {
          ratios.Add(static_cast<double>(o.round_updates) /
                     static_cast<double>(o.ideal_updates));
        }
        oracles.erase(oracles.begin() + static_cast<long>(j));
      } else {
        // Round still running; it cannot outlast the exit by more than
        // the quantization slack — score it when it ends.
        ++j;
      }
    }
    if (protocol.rounds() != rounds_seen) {
      rounds_seen = protocol.rounds();
      // Attach the finished round's length to its (oldest unattached)
      // oracle; score immediately if the oracle already exited.
      for (size_t j = 0; j < oracles.size(); ++j) {
        if (oracles[j].round_updates < 0) {
          Oracle& o = oracles[j];
          o.round_updates = round_updates;
          if (o.eval->Value() >= 0.0) {
            if (o.ideal_updates >= kMinIdeal) {
              ratios.Add(static_cast<double>(o.round_updates) /
                         static_cast<double>(o.ideal_updates));
            }
            oracles.erase(oracles.begin() + static_cast<long>(j));
          }
          break;
        }
      }
      round_updates = 0;
      new_oracle();
    }
  }
  return InertiaResult{ratios.mean(), ratios.min(), ratios.count()};
}

void Main() {
  JsonReport::Get().Init("inertia");
  std::printf("§4.1.3 reproduction: round duration vs the ideal maximum "
              "under constant-velocity streams\n");
  TablePrinter table({"workload", "variant", "mean round/ideal",
                      "min round/ideal", "rounds scored"});
  struct Workload {
    const char* label;
    double alpha;
    uint64_t rotation;
    double cancel;
  };
  // Rotation > 0 makes the local drift directions diverge, which is what
  // ends basic-FGM rounds early; the global velocity stays constant.
  const Workload workloads[] = {
      {"parallel local drifts", 0.0, 0, 0.0},
      {"divergent local drifts", 0.0, 32, 0.0},
      {"half-cancelling drifts", 0.0, 32, 0.45},
      {"cancelling + power-law rates", 1.2, 32, 0.45},
  };
  for (const Workload& w : workloads) {
    DriftStreamConfig config;
    config.sites = 8;
    config.total_updates = 400000;
    config.site_power_alpha = w.alpha;
    config.site_key_rotation = w.rotation;
    config.cancel_fraction = w.cancel;
    const auto trace = GenerateDriftTrace(config);
    for (const bool rebalance : {false, true}) {
      const InertiaResult r = Measure(trace, config.sites, 0.05, rebalance);
      table.AddRow({w.label, rebalance ? "FGM (rebalancing)" : "FGM-basic",
                    Fmt("%.3f", r.mean_ratio), Fmt("%.3f", r.min_ratio),
                    TablePrinter::Cell(r.rounds)});
      JsonReport::Get().AddEntry(
          std::string(w.label) + (rebalance ? "/fgm" : "/fgm-basic"),
          {{"mean_ratio", r.mean_ratio},
           {"min_ratio", r.min_ratio},
           {"rounds", static_cast<double>(r.rounds)}});
    }
  }
  table.Print();
  std::printf("The paper's claim: with rebalancing the mean ratio is at "
              "least ~0.5 (the protocol realizes at least half of any "
              "achievable round length).\n");
}

}  // namespace
}  // namespace bench
}  // namespace fgm

int main() {
  fgm::bench::Main();
  return 0;
}
