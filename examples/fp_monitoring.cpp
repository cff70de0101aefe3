// F_p-moment monitoring of an explicit frequency vector (paper §3).
//
// Tracks ‖S‖_2 of a distributed frequency vector within (1±eps), using
// the two-sided safe function of §3.0.3 (max of a tangent halfspace and a
// ball) so the stream may contain deletions. Demonstrates safe-function
// composition (Theorem 2.2) on the simplest non-sketch query.
//
//   ./build/examples/fp_monitoring [--updates=300000] [--sites=8]
//       [--eps=0.05] [--dim=64] [--window=6000]

#include <cstdio>

#include "core/fgm_protocol.h"
#include "query/query.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  const int sites = static_cast<int>(flags.GetInt("sites", 8));
  const int64_t updates = flags.GetInt("updates", 300000);
  const double eps = flags.GetDouble("eps", 0.05);
  const size_t dim = static_cast<size_t>(flags.GetInt("dim", 64));
  const double window = flags.GetDouble("window", 6000.0);

  fgm::WorldCupConfig wc;
  wc.sites = sites;
  wc.total_updates = updates;
  wc.duration = 20000.0;
  const auto trace = GenerateWorldCupTrace(wc);

  fgm::FpNormQuery query(dim, /*p=*/2.0, eps,
                         fgm::FpNormQuery::Mode::kTwoSided);
  fgm::FgmConfig config;
  fgm::FgmProtocol protocol(&query, sites, config);

  fgm::RealVector truth(dim);
  std::vector<fgm::CellUpdate> deltas;

  std::printf("F2 norm of a %zu-dim frequency vector, %d sites, eps=%.3g, "
              "turnstile window %.0fs\n\n",
              dim, sites, eps, window);
  std::printf("%12s %14s %14s %10s\n", "event", "estimate", "exact",
              "rel.err");

  fgm::SlidingWindowStream events(&trace, window);
  int64_t n = 0;
  while (const fgm::StreamRecord* rec = events.Next()) {
    deltas.clear();
    query.MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) {
      truth[u.index] += u.delta / static_cast<double>(sites);
    }
    if (++n % (updates / 6) == 0) {
      const double exact = query.Evaluate(truth);
      const double estimate = protocol.Estimate();
      std::printf("%12lld %14.6g %14.6g %9.2f%%\n",
                  static_cast<long long>(n), estimate, exact,
                  exact != 0.0 ? 100.0 * (estimate - exact) / exact : 0.0);
    }
  }

  const fgm::TrafficStats& t = protocol.traffic();
  std::printf("\ncommunication: %.3f words/update (centralizing = 1.0), "
              "%lld rounds, %lld rebalances\n",
              static_cast<double>(t.total_words()) / static_cast<double>(n),
              static_cast<long long>(protocol.rounds()),
              static_cast<long long>(protocol.rebalances()));
  return 0;
}
