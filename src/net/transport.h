// The message path, with strict accounting.
//
// Every coordinator ↔ site message of the protocols is a typed wire struct
// (net/wire.h) carried by one template: Ship(site, msg) sends it parent →
// child, Send(site, msg) child → parent. Both go through Deliver<Msg>,
// which charges the message's Words() (plus the optional span-id word) to
// its class Msg::kKind and returns the message as the receiver gets it:
//
//  * counting (the fast simulation path): only the words are charged; the
//    caller's message comes back by move.
//  * strict (TransportMode::kSerializing, and always under the event
//    simulator): the message is ENCODED into a WordBuffer, the encoded
//    size is checked against Words(), a fresh copy is DECODED and must
//    re-encode to the identical bits, and the decoded copy is delivered.
//    Any divergence between the cost model and the real wire format
//    aborts loudly (FGM_CHECK), which is the point: the paper's headline
//    metric is words on the wire, so a drift between "charged" and
//    "transmitted" must be impossible to miss.
//
// Both modes charge identical word counts from the same message objects,
// so reported costs are bit-identical across modes; strict mode only adds
// the round trip.
//
// Every delivery ends in one virtual link hook, Carry(site, dir, kind,
// words). The base hook is the synchronous link of the paper's
// evaluation: it books the words in TrafficStats and emits a kMsgSent
// event and a point span. sim::EventNetwork (src/sim) overrides only that
// hook to add latency, loss, retransmission and faults; a socket backend
// would slot in the same way.
//
// One Transport models one star: a parent and `sites` child endpoints
// addressed by index. The flat protocols run one star (the coordinator and
// its k sites); tree topologies (src/hier) run one per tier, whose child
// endpoints are that tier's nodes, and stamp each with its tier.

#ifndef FGM_NET_TRANSPORT_H_
#define FGM_NET_TRANSPORT_H_

#include <utility>
#include <vector>

#include "net/network.h"
#include "net/wire.h"
#include "query/query.h"
#include "util/check.h"
#include "util/real_vector.h"

namespace fgm {

class SpanSink;
class TraceSink;

/// Resolves kAuto against the FGM_STRICT_WIRE environment variable.
TransportMode ResolveTransportMode(TransportMode mode);

class Transport {
 public:
  /// A synchronous star of `sites` child endpoints; `mode` picks counting
  /// or strict delivery (kAuto resolves via the environment).
  Transport(int sites, TransportMode mode);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  int sites() const { return sites_; }
  const TrafficStats& stats() const { return stats_; }
  virtual const char* name() const {
    return strict_ ? "serializing" : "counting";
  }

  /// Tree tier this star carries (src/hier): stamped onto every emitted
  /// kMsgSent event and message span. Flat runs leave it 0 (the root
  /// star), keeping their traces byte-identical.
  void set_tier(int tier) { tier_ = tier; }
  int tier() const { return tier_; }

  /// Installs an event sink receiving one kMsgSent event per charged
  /// message (nullptr disables tracing; the default).
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Installs a span sink receiving the message spans (nullptr disables
  /// spans; the default). Virtual: the event network rebases the sink
  /// onto its simulated clock.
  virtual void set_spans(SpanSink* spans) { spans_ = spans; }

  /// Enables the span-id wire envelope: every message carries the id of
  /// the innermost open span as one trailing word, charged like any other
  /// payload word (and, on the strict path, actually encoded so the
  /// charge stays provably honest). Off by default — default traffic is
  /// bit-identical with spans compiled in.
  void set_span_wire(bool on) { span_wire_ = on; }

  /// Parent → child `site`: charges `msg` and returns it as the child
  /// receives it.
  template <typename Msg>
  Msg Ship(int site, Msg msg) {
    return Deliver(site, /*dir=*/+1, std::move(msg));
  }

  /// Child `site` → parent.
  template <typename Msg>
  Msg Send(int site, Msg msg) {
    return Deliver(site, /*dir=*/-1, std::move(msg));
  }

 protected:
  /// The link hook: carries one message of `words` wire words (payload
  /// plus span-id word) between the parent and child `site`, in direction
  /// `dir` (+1 parent → child, -1 child → parent). The synchronous link
  /// transmits instantly: it books the message and emits a point span.
  virtual void Carry(int site, int dir, MsgKind kind, int64_t words);

  /// Books one transmission: TrafficStats and a kMsgSent event.
  void Book(int site, int dir, MsgKind kind, int64_t words);

  /// The strict round trip: encode, check the encoded size equals
  /// Words(), decode, check the decode re-encodes to identical bits, and
  /// return the decoded copy.
  template <typename Msg>
  Msg RoundTrip(const Msg& msg) const;

  /// Extra words per message charged by the span-id envelope.
  int64_t SpanWireExtra() const { return span_wire_ ? 1 : 0; }

  TraceSink* trace_ = nullptr;
  SpanSink* spans_ = nullptr;

 private:
  template <typename Msg>
  Msg Deliver(int site, int dir, Msg msg) {
    const int64_t words = msg.Words() + SpanWireExtra();
    if (!strict_) {
      Carry(site, dir, Msg::kKind, words);
      return msg;
    }
    Msg decoded = RoundTrip(msg);
    Carry(site, dir, Msg::kKind, words);
    return decoded;
  }

  /// The span id the envelope carries: the innermost open span, or 0.
  int64_t WireSpanId() const;

  int sites_;
  bool strict_;
  int tier_ = 0;
  bool span_wire_ = false;
  TrafficStats stats_;
};

template <typename Msg>
Msg Transport::RoundTrip(const Msg& msg) const {
  WordBuffer wire;
  msg.Encode(&wire);
  FGM_CHECK_EQ(static_cast<int64_t>(wire.size_words()), msg.Words());
  // Decode sees the payload only — a receiver strips the known trailing
  // span-id word before decoding (some payloads infer their length from
  // the buffer size).
  Msg decoded = Msg::Decode(wire);
  WordBuffer reencoded;
  decoded.Encode(&reencoded);
  if (span_wire_) {
    // The span-id envelope is one trailing word, actually appended to the
    // wire bits so the +1 charge is backed by transmitted words, and
    // cross-checked bit-exactly like the payload.
    const int64_t span_id = WireSpanId();
    wire.PutCount(span_id);
    reencoded.PutCount(span_id);
  }
  FGM_CHECK(wire.SameBits(reencoded));
  return decoded;
}

/// Re-projects verbatim raw updates through the shared query, summing the
/// resulting deltas into `out` (which must be zeroed, query-dimensioned) —
/// what the coordinator of a real deployment does on receiving the
/// verbatim drift representation. Applying the same deltas in the same
/// order as the site makes the reconstruction bit-exact. When `touched`
/// is given, the index of every delta is appended to it (with repeats):
/// the cells outside it stay +0.0.
void ReprojectRawUpdates(const ContinuousQuery& query, int site,
                         const std::vector<RawUpdateMsg>& raw,
                         RealVector* out,
                         std::vector<size_t>* touched = nullptr);

/// The drift delivered by a flush message: the carried dense vector when
/// present (counting mode, or a strict-mode dense decode), otherwise the
/// re-projection of the verbatim updates into `*scratch`.
const RealVector& DeliveredDrift(const DriftFlushMsg& msg,
                                 const ContinuousQuery& query, int site,
                                 RealVector* scratch);

}  // namespace fgm

#endif  // FGM_NET_TRANSPORT_H_
