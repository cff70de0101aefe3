// Join monitoring (the paper's Q2 workload): the join size of HTML
// requests with non-HTML requests on client id,
//     σ_{TYPE=HTML}(R) ⋈_CID σ_{TYPE≠HTML}(R),
// tracked continuously over a distributed stream. The state vector is the
// concatenation of two Fast-AGMS sketches; the safe zone handles the
// indefinite (hyperbolic) product condition.
//
//   ./build/examples/join_monitoring [--updates=400000] [--sites=27]
//       [--eps=0.1] [--window=14400] [--width=150]

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
  const int width = static_cast<int>(flags.GetInt("width", 150));

  fgm::WorldCupConfig wc;
  wc.sites = sites;
  wc.total_updates = updates;
  const auto trace = GenerateWorldCupTrace(wc);

  auto projection =
      std::make_shared<const fgm::AgmsProjection>(5, width, /*seed=*/0xA66);
  fgm::JoinQuery query(projection, eps);

  fgm::FgmConfig config;
  config.optimizer = true;  // run the full FGM/O stack
  fgm::FgmProtocol protocol(&query, sites, config);

  fgm::RealVector truth(query.dimension());
  std::vector<fgm::CellUpdate> deltas;

  std::printf("Q2 join over a %.1fh sliding window, %d sites, eps=%.3g, "
              "two 5x%d sketches, FGM/O\n\n",
              window / 3600.0, sites, eps, width);
  std::printf("%12s %16s %16s %10s %8s %8s\n", "event", "FGM/O estimate",
              "exact Q2(S)", "rel.err", "rounds", "full-zone%");

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
      std::printf("%12lld %16.6g %16.6g %9.2f%% %8lld %9.0f%%\n",
                  static_cast<long long>(n), estimate, exact,
                  exact != 0.0 ? 100.0 * (estimate - exact) / exact : 0.0,
                  static_cast<long long>(protocol.rounds()),
                  100.0 * protocol.mean_full_function_fraction());
    }
  }

  const fgm::TrafficStats& t = protocol.traffic();
  std::printf("\ncommunication: %lld words (%.3f words/update), "
              "%.1f%% upstream; the optimizer shipped the full safe zone "
              "in %.0f%% of site-rounds\n",
              static_cast<long long>(t.total_words()),
              static_cast<double>(t.total_words()) / static_cast<double>(n),
              100.0 * t.upstream_fraction(),
              100.0 * protocol.mean_full_function_fraction());
  return 0;
}
