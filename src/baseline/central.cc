#include "baseline/central.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fgm {

CentralProtocol::CentralProtocol(const ContinuousQuery* query, int num_sites,
                                 TransportMode transport, TraceSink* trace,
                                 MetricsRegistry* metrics,
                                 const sim::NetSimConfig& net)
    : query_(query),
      sites_k_(num_sites),
      state_(query->dimension()) {
  FGM_CHECK(query != nullptr);
  FGM_CHECK_GE(num_sites, 1);
  // The baseline forwards from every site on every record; a fault plan
  // would make that contact a protocol error (no crash handshake here).
  FGM_CHECK(net.fault_plan.empty());
  transport_ = sim::MakeTransport(transport, num_sites, net, &sim_);
  if (trace != nullptr) transport_->set_trace(trace);
  if (metrics != nullptr) sketch_timer_ = metrics->GetTimer("sketch_update");
}

void CentralProtocol::ProcessRecord(const StreamRecord& record) {
  cells_.clear();
  {
    ScopedTimer timed(sketch_timer_);
    query_->MapRecord(record, &cells_);
  }
  ProcessRecord(record, cells_);
}

void CentralProtocol::ProcessRecord(const StreamRecord& record,
                                    const std::vector<CellUpdate>& cells) {
  FGM_CHECK(record.site >= 0 && record.site < sites_k_);
  if (sim_ != nullptr) sim_->Advance(1);
  // The update crosses the wire verbatim (normally 1 word; 2 for keys
  // beyond 62 bits). The delivered record carries the cid, type and sign
  // the projection reads — FromRecord checks the weight is ±1 and the
  // serializing transport verifies the round trip bit for bit — so the
  // coordinator applies the record's cells as the site mapped them.
  transport_->Send(record.site, RawUpdateMsg::FromRecord(record));
  // Global state is the *average* of local states (§2.1): each update
  // contributes its deltas scaled by 1/k.
  const double inv_k = 1.0 / static_cast<double>(sites_k_);
  for (const CellUpdate& u : cells) state_[u.index] += inv_k * u.delta;
}

double CentralProtocol::Estimate() const { return query_->Evaluate(state_); }

ThresholdPair CentralProtocol::CurrentThresholds() const {
  const double q = Estimate();
  return ThresholdPair{q, q};
}

}  // namespace fgm
