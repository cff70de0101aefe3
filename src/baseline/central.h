// Centralizing baseline: every stream update is forwarded to the
// coordinator verbatim (one word per update, downstream only).
//
// This is the method any monitoring protocol must beat; the paper's
// "comm.cost" axes are normalized by exactly this cost, so the baseline
// doubles as the normalizer in the benchmark harness. Its estimate is
// exact at all times.

#ifndef FGM_BASELINE_CENTRAL_H_
#define FGM_BASELINE_CENTRAL_H_

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "query/query.h"
#include "sim/event_network.h"

namespace fgm {

class MetricsRegistry;
class WallTimer;

class CentralProtocol : public MonitoringProtocol {
 public:
  /// `trace` / `metrics` are non-owning observability hooks (obs/);
  /// nullptr (the default) disables them. An enabled `net` config runs
  /// the raw-update stream over the event-simulated network (RPC
  /// discipline: every update is retransmitted until delivered, so the
  /// estimate stays exact); fault plans are rejected.
  CentralProtocol(const ContinuousQuery* query, int num_sites,
                  TransportMode transport = TransportMode::kAuto,
                  TraceSink* trace = nullptr,
                  MetricsRegistry* metrics = nullptr,
                  const sim::NetSimConfig& net = {});

  std::string name() const override { return "CENTRAL"; }
  void ProcessRecord(const StreamRecord& record,
                     const std::vector<CellUpdate>& cells) override;
  void ProcessRecord(const StreamRecord& record) override;
  const RealVector& GlobalEstimate() const override { return state_; }
  double Estimate() const override;
  ThresholdPair CurrentThresholds() const override;
  const TrafficStats& traffic() const override { return transport_->stats(); }
  int64_t rounds() const override { return 0; }
  void Finish() override {
    if (sim_ != nullptr) sim_->FinishRun();
  }
  const sim::SimNetStats* net_stats() const override {
    return sim_ != nullptr ? &sim_->net_stats() : nullptr;
  }

  /// The transport carrying this protocol's messages (testing hook).
  const Transport& transport() const { return *transport_; }

 private:
  const ContinuousQuery* query_;
  int sites_k_;
  std::unique_ptr<Transport> transport_;
  sim::EventNetwork* sim_ = nullptr;  // non-owning view into transport_
  WallTimer* sketch_timer_ = nullptr;
  RealVector state_;  // exact global state, scaled by 1/k
  std::vector<CellUpdate> cells_;  // one-argument ProcessRecord's map target
};

}  // namespace fgm

#endif  // FGM_BASELINE_CENTRAL_H_
