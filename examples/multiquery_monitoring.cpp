// Simultaneous monitoring of two different queries — the self-join size
// (over a Fast-AGMS sketch) and the variance of response sizes — with a
// SINGLE FGM instance, via safe-function composition (Thm 2.2): the
// combined safe zone is the intersection of the members', so one round
// structure, one set of counters and one drift flush guarantee both
// (1±eps) bounds at once.
//
//   ./build/examples/multiquery_monitoring [--updates=300000] [--sites=10]
//       [--eps=0.1] [--window=6000]

#include <cstdio>
#include <memory>

#include "core/fgm_protocol.h"
#include "query/multi.h"
#include "query/variance.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  const int sites = static_cast<int>(flags.GetInt("sites", 10));
  const int64_t updates = flags.GetInt("updates", 300000);
  const double eps = flags.GetDouble("eps", 0.1);
  const double window = flags.GetDouble("window", 6000.0);

  fgm::WorldCupConfig wc;
  wc.sites = sites;
  wc.total_updates = updates;
  wc.duration = 20000.0;
  const auto trace = GenerateWorldCupTrace(wc);

  auto projection =
      std::make_shared<const fgm::AgmsProjection>(5, 60, /*seed=*/0xA67);
  std::vector<std::unique_ptr<fgm::ContinuousQuery>> members;
  members.push_back(std::make_unique<fgm::SelfJoinQuery>(projection, eps));
  members.push_back(std::make_unique<fgm::VarianceQuery>(eps));
  fgm::MultiQuery multi(std::move(members));

  fgm::FgmConfig config;
  fgm::FgmProtocol protocol(&multi, sites, config);

  fgm::RealVector truth(multi.dimension());
  std::vector<fgm::CellUpdate> deltas;

  std::printf("Monitoring %s with one FGM instance, %d sites, eps=%.3g, "
              "TW=%.0fs\n\n",
              multi.name().c_str(), sites, eps, window);
  std::printf("%12s | %14s %14s | %12s %12s\n", "event", "selfjoin est",
              "selfjoin exact", "variance est", "var exact");

  fgm::SlidingWindowStream events(&trace, window);
  int64_t n = 0;
  while (const fgm::StreamRecord* rec = events.Next()) {
    deltas.clear();
    multi.MapRecord(*rec, &deltas);
    protocol.ProcessRecord(*rec, deltas);
    for (const auto& u : deltas) {
      truth[u.index] += u.delta / static_cast<double>(sites);
    }
    if (++n % (updates / 6) == 0) {
      const fgm::RealVector& e = protocol.GlobalEstimate();
      std::printf("%12lld | %14.6g %14.6g | %12.5g %12.5g\n",
                  static_cast<long long>(n), multi.EvaluateMember(0, e),
                  multi.EvaluateMember(0, truth),
                  multi.EvaluateMember(1, e),
                  multi.EvaluateMember(1, truth));
    }
  }

  const fgm::TrafficStats& t = protocol.traffic();
  std::printf("\nboth guarantees held simultaneously; communication "
              "%.3f words/update, %lld rounds\n",
              static_cast<double>(t.total_words()) / static_cast<double>(n),
              static_cast<long long>(protocol.rounds()));
  return 0;
}
