#include "net/transport.h"

#include <cstdlib>

#include "obs/span.h"
#include "obs/trace.h"

namespace fgm {

namespace {

bool StrictWireEnv() {
  const char* env = std::getenv("FGM_STRICT_WIRE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

TransportMode ResolveTransportMode(TransportMode mode) {
  if (mode != TransportMode::kAuto) return mode;
  return StrictWireEnv() ? TransportMode::kSerializing
                         : TransportMode::kCounting;
}

Transport::Transport(int sites, TransportMode mode)
    : sites_(sites),
      strict_(ResolveTransportMode(mode) == TransportMode::kSerializing) {
  FGM_CHECK_GE(sites, 1);
}

void Transport::Book(int site, int dir, MsgKind kind, int64_t words) {
  FGM_CHECK(site >= 0 && site < sites_);
  FGM_CHECK_GE(words, 0);
  if (dir > 0) {
    stats_.upstream_words += words;
    stats_.upstream_messages += 1;
  } else {
    stats_.downstream_words += words;
    stats_.downstream_messages += 1;
  }
  stats_.words_by_kind[static_cast<size_t>(kind)] += words;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kMsgSent;
    e.site = site;
    e.label = MsgKindName(kind);
    e.dir = dir;
    e.words = words;
    e.tier = tier_;
    trace_->Emit(e);
  }
}

void Transport::Carry(int site, int dir, MsgKind kind, int64_t words) {
  Book(site, dir, kind, words);
  if (spans_ == nullptr) return;
  // The synchronous link transmits instantaneously, so the span is a
  // point interval; its value is the words/kind/causal-parent record.
  Span s;
  s.kind = SpanKind::kMsg;
  s.site = site;
  s.begin = spans_->Now();
  s.words = words;
  s.count = 1;
  s.dir = dir;
  s.tier = tier_;
  s.label = MsgKindName(kind);
  spans_->EmitComplete(s);
}

int64_t Transport::WireSpanId() const {
  return spans_ != nullptr ? spans_->CurrentId() : 0;
}

void ReprojectRawUpdates(const ContinuousQuery& query, int site,
                         const std::vector<RawUpdateMsg>& raw,
                         RealVector* out, std::vector<size_t>* touched) {
  FGM_CHECK_EQ(out->dim(), query.dimension());
  std::vector<CellUpdate> deltas;
  for (const RawUpdateMsg& u : raw) {
    deltas.clear();
    query.MapRecord(u.ToRecord(site), &deltas);
    for (const CellUpdate& d : deltas) {
      (*out)[d.index] += d.delta;
      if (touched != nullptr) touched->push_back(d.index);
    }
  }
}

const RealVector& DeliveredDrift(const DriftFlushMsg& msg,
                                 const ContinuousQuery& query, int site,
                                 RealVector* scratch) {
  if (msg.drift.dim() != 0) {
    FGM_CHECK_EQ(msg.drift.dim(), query.dimension());
    return msg.drift;
  }
  if (scratch->dim() != query.dimension()) {
    *scratch = RealVector(query.dimension());
  } else {
    scratch->SetZero();
  }
  ReprojectRawUpdates(query, site, msg.raw, scratch);
  return *scratch;
}

}  // namespace fgm
