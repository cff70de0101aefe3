// Self-join monitoring over a sliding window (the paper's Q1 workload).
//
// Monitors the self-join size R ⋈_CID R of the last `--window` seconds of
// a distributed web-request stream, printing the coordinator's running
// estimate next to the exact value at regular checkpoints, then the final
// communication bill.
//
//   ./build/examples/selfjoin_monitoring [--updates=400000] [--sites=27]
//       [--eps=0.1] [--window=14400] [--width=300]

#include <cstdio>
#include <memory>

#include "core/fgm_protocol.h"
#include "query/query.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  const int sites = static_cast<int>(flags.GetInt("sites", 27));
  const int64_t updates = flags.GetInt("updates", 400000);
  const double eps = flags.GetDouble("eps", 0.1);
  const double window = flags.GetDouble("window", 14400.0);
  const int width = static_cast<int>(flags.GetInt("width", 300));

  fgm::WorldCupConfig wc;
  wc.sites = sites;
  wc.total_updates = updates;
  const auto trace = GenerateWorldCupTrace(wc);

  // The query owns the sketch projection; every site and the coordinator
  // share it, so drift vectors add up linearly.
  auto projection =
      std::make_shared<const fgm::AgmsProjection>(5, width, /*seed=*/0xA65);
  fgm::SelfJoinQuery query(projection, eps);

  fgm::FgmConfig config;  // rebalancing on, optimizer off
  fgm::FgmProtocol protocol(&query, sites, config);

  // Exact reference state, maintained outside the protocol for display.
  fgm::RealVector truth(query.dimension());
  std::vector<fgm::CellUpdate> deltas;

  std::printf("Q1 self-join over a %.1fh sliding window, %d sites, "
              "eps=%.3g, sketch 5x%d\n\n",
              window / 3600.0, sites, eps, width);
  std::printf("%12s %16s %16s %10s %9s\n", "event", "FGM estimate",
              "exact Q1(S)", "rel.err", "rounds");

  fgm::SlidingWindowStream events(&trace, window);
  int64_t n = 0;
  const int64_t report_every = updates / 8;
  while (const fgm::StreamRecord* rec = events.Next()) {
    deltas.clear();
    query.MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) {
      truth[u.index] += u.delta / static_cast<double>(sites);
    }
    if (++n % report_every == 0) {
      const double exact = query.Evaluate(truth);
      const double estimate = protocol.Estimate();
      std::printf("%12lld %16.6g %16.6g %9.2f%% %9lld\n",
                  static_cast<long long>(n), estimate, exact,
                  exact != 0.0 ? 100.0 * (estimate - exact) / exact : 0.0,
                  static_cast<long long>(protocol.rounds()));
    }
  }

  const fgm::TrafficStats& t = protocol.traffic();
  std::printf("\nstream events: %lld (inserts %lld, window deletes %lld)\n",
              static_cast<long long>(n), static_cast<long long>(events.inserts()),
              static_cast<long long>(events.deletes()));
  std::printf("communication: %lld words total (%.3f words/update), "
              "%.1f%% upstream\n",
              static_cast<long long>(t.total_words()),
              static_cast<double>(t.total_words()) / static_cast<double>(n),
              100.0 * t.upstream_fraction());
  std::printf("rounds: %lld, subrounds: %lld, rebalances: %lld\n",
              static_cast<long long>(protocol.rounds()),
              static_cast<long long>(protocol.subrounds()),
              static_cast<long long>(protocol.rebalances()));
  return 0;
}
