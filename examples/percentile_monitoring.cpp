// Continuous p95 monitoring of response sizes over a sliding window —
// the "tail latency dashboard" use case. The quantile's rank conditions
// are linear in the histogram state, so the safe zone is just two
// halfspaces; FGM keeps the percentile bracketed within ±eps of the rank
// at a tiny fraction of the centralizing cost (the histogram has only
// `buckets` coordinates).
//
//   ./build/examples/percentile_monitoring [--updates=400000] [--sites=20]
//       [--phi=0.95] [--eps=0.01] [--window=7200] [--buckets=64]

#include <cstdio>

#include "core/fgm_protocol.h"
#include "query/quantile.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  const int sites = static_cast<int>(flags.GetInt("sites", 20));
  const int64_t updates = flags.GetInt("updates", 400000);
  const double phi = flags.GetDouble("phi", 0.95);
  const double eps = flags.GetDouble("eps", 0.01);
  const double window = flags.GetDouble("window", 7200.0);
  const int buckets = static_cast<int>(flags.GetInt("buckets", 64));

  fgm::WorldCupConfig wc;
  wc.sites = sites;
  wc.total_updates = updates;
  const auto trace = GenerateWorldCupTrace(wc);

  fgm::QuantileQuery query(buckets, phi, eps);
  fgm::FgmConfig config;
  fgm::FgmProtocol protocol(&query, sites, config);

  fgm::RealVector truth(query.dimension());
  std::vector<fgm::CellUpdate> deltas;

  std::printf("p%.0f of response sizes over a %.1fh window, %d sites, "
              "rank accuracy ±%.0f%% of N\n\n",
              100 * phi, window / 3600.0, sites, 100 * eps);
  std::printf("%12s %16s %16s %18s\n", "event", "p95 bracket (KB)",
              "exact p95 (KB)", "inside bracket?");

  fgm::SlidingWindowStream events(&trace, window);
  int64_t n = 0, inside = 0, certified = 0;
  while (const fgm::StreamRecord* rec = events.Next()) {
    deltas.clear();
    query.MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) {
      truth[u.index] += u.delta / static_cast<double>(sites);
    }
    ++n;
    if (protocol.BoundsCertified()) {
      const fgm::ThresholdPair t = protocol.CurrentThresholds();
      const double q = query.Evaluate(truth);
      const bool ok = q >= t.lo && q <= t.hi;
      inside += ok;
      ++certified;
      if (n % (updates / 6) == 0 && t.hi < 1e200) {
        std::printf("%12lld [%7.1f, %7.1f] %16.1f %18s\n",
                    static_cast<long long>(n),
                    query.BucketValue(static_cast<int>(t.lo)),
                    query.BucketValue(static_cast<int>(t.hi)),
                    query.BucketValue(static_cast<int>(q)),
                    ok ? "yes" : "NO");
      }
    }
  }

  const fgm::TrafficStats& t = protocol.traffic();
  std::printf("\nguarantee held at %lld / %lld certified events; "
              "communication %.4f words/update (centralizing = 1.0), "
              "%lld rounds\n",
              static_cast<long long>(inside),
              static_cast<long long>(certified),
              static_cast<double>(t.total_words()) / static_cast<double>(n),
              static_cast<long long>(protocol.rounds()));
  return 0;
}
