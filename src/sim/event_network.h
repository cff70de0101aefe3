// Discrete-event network simulator behind the Transport link hook.
//
// EventNetwork carries the *real* serialized wire messages of
// net/wire.h over simulated links with per-link latency distributions,
// bandwidth caps, reordering jitter, probabilistic drop and scheduled
// endpoint outages. It is a strict Transport: every message takes the
// shared encode → size-check → decode → bit-verify round trip of
// net/transport.h, and only the link hook (Carry) differs — the message
// is delayed, and possibly lost, before delivery.
//
// Like every Transport it models one star: a parent and its child
// endpoints, addressed by (site, direction). The flat protocols run a
// single star whose children are the k sites; a tree topology (src/hier)
// runs its root tier over an EventNetwork and its lower tiers over
// synchronous transports.
//
// Two delivery disciplines:
//
//  * RPC (every Ship / Send): the caller blocks while the simulated
//    clock advances by the sampled delay; a lost message is detected by
//    timeout and retransmitted (each attempt is charged — retransmissions
//    are real words on the wire). This models the request/response
//    control plane (zone shipments, polls, flushes).
//  * Async (PostCounter): FGM's subround counter increments are
//    fire-and-forget datagrams. They sit in the event queue until their
//    due tick and are drained by the protocol at safe points
//    (PopCounter). Lost datagrams are NOT retransmitted — sites send
//    cumulative per-subround counters, so a later datagram or a
//    coordinator re-poll heals the gap.
//
// Determinism: one seeded generator drives drops, latencies and jitter in
// program order; the same config and stream reproduce a run bit-exactly.
// Fault-plan transitions take effect when the protocol drains them
// (PopFault) — i.e. at record granularity — never in the middle of an
// RPC, which keeps the site set stable across a multi-message exchange.
//
// Null mode (zero latency, no loss, no faults, no jitter/bandwidth):
// every datagram is due immediately, no randomness is consumed, and the
// MsgDelivered/MsgDropped trace events are suppressed, so traces and
// TrafficStats are bit-identical to the synchronous transports.

#ifndef FGM_SIM_EVENT_NETWORK_H_
#define FGM_SIM_EVENT_NETWORK_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "net/transport.h"
#include "sim/net_config.h"
#include "util/rng.h"

namespace fgm {

enum class TraceEventKind : int;

namespace sim {

/// Aggregate counters for a simulated run. Message/word counts obey
/// conservation per direction: sent = delivered + dropped (the replay
/// checker re-verifies this from the trace).
struct SimNetStats {
  int64_t delivered_msgs = 0;
  int64_t delivered_words = 0;
  int64_t dropped_msgs = 0;
  int64_t dropped_words = 0;
  int64_t retransmitted_msgs = 0;  ///< RPC attempts after the first
  int64_t retransmitted_words = 0;
  int64_t stale_msgs = 0;   ///< counter datagrams from a closed subround
  int64_t timeouts = 0;     ///< coordinator silence-timeout re-polls
  int64_t resyncs = 0;      ///< completed crash/rejoin handshakes
  int64_t site_downs = 0;   ///< down transitions dispatched
  int64_t in_flight_words = 0;      ///< datagram words currently queued
  int64_t max_in_flight_words = 0;  ///< high-water mark of the above
  int64_t final_tick = 0;           ///< clock at FinishRun
};

/// Per-site attribution of the aggregate counters above. Maintained
/// alongside SimNetStats at zero extra randomness (pure bookkeeping on
/// the same events), so enabling consumers never perturbs a seeded run.
/// The health monitor (obs/health.h) derives per-site drop-rate,
/// latency and retransmission EWMAs from these cumulative counts.
struct SiteNetStats {
  int64_t delivered_msgs = 0;
  int64_t delivered_words = 0;
  int64_t dropped_msgs = 0;
  int64_t dropped_words = 0;
  int64_t retransmitted_msgs = 0;
  int64_t retransmitted_words = 0;
  int64_t latency_ticks = 0;    ///< summed post→delivery delays
  int64_t latency_samples = 0;  ///< deliveries contributing to the above
  int64_t downs = 0;            ///< down transitions for this site
};

/// A counter datagram handed to the protocol at its due tick.
struct CounterDelivery {
  int site = 0;       ///< the sending child endpoint
  CounterMsg msg{0};
  int64_t round = 0;     ///< epoch the datagram was sent in
  int64_t subround = 0;
  int64_t due = 0;       ///< wire arrival tick
  int64_t posted = 0;    ///< tick the site posted it (span begin)
};

/// A fault-plan transition handed to the protocol at a safe point.
struct FaultNotice {
  int site = 0;
  bool up = false;
  const char* reason = "crash";
};

class EventNetwork final : public Transport {
 public:
  EventNetwork(int sites, const NetSimConfig& config);

  const char* name() const override { return "event-sim"; }
  /// Registers the span sink and rebases it onto the simulated clock. The
  /// event network emits latency-stamped kRpc / kMsg / kDatagram spans
  /// per attempt instead of the synchronous link's point spans.
  void set_spans(SpanSink* spans) override;

  /// Fire-and-forget counter datagram from child `site` to the parent.
  /// Charges one word, samples loss and delay, and queues the delivery.
  /// The sending site must be up.
  void PostCounter(int site, CounterMsg msg, int64_t round,
                   int64_t subround);

  /// Pops the next datagram whose due tick has been reached, in
  /// (due, send order) — jitter beyond the base latency produces genuine
  /// reordering. Returns false when nothing is deliverable yet.
  bool PopCounter(CounterDelivery* out);

  /// Pops the next fault transition scheduled at or before the current
  /// tick, applying its link-state flip (and emitting SiteDown for down
  /// flips). Returns false when none is pending.
  bool PopFault(FaultNotice* out);

  /// Advances the simulated clock (protocols tick once per record; RPCs
  /// advance by their sampled delays internally).
  void Advance(int64_t ticks);
  int64_t now() const { return now_; }

  /// Link state as of the last drained transition.
  bool SiteUp(int site) const;

  /// Advances the clock past the last queued datagram so a final drain
  /// delivers everything, and records the final tick.
  void FinishRun();

  bool null_mode() const { return null_; }
  const NetSimConfig& config() const { return config_; }
  const SimNetStats& net_stats() const { return net_stats_; }
  /// Per-site attribution (one entry per site, cumulative).
  const std::vector<SiteNetStats>& site_stats() const { return site_stats_; }

  // Protocol-side accounting surfaced with the network counters.
  void NoteTimeout() { ++net_stats_.timeouts; }
  void NoteResync() { ++net_stats_.resyncs; }
  void NoteStale() { ++net_stats_.stale_msgs; }

 private:
  /// The RPC link: the caller blocks while the simulated clock advances by
  /// the sampled delay; each lost attempt is charged, times out and is
  /// resent.
  void Carry(int site, int dir, MsgKind kind, int64_t words) override;

  struct Envelope {
    int64_t due = 0;
    int64_t seq = 0;
    CounterDelivery delivery;
  };
  struct EnvelopeLater {
    bool operator()(const Envelope& a, const Envelope& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  bool SampleDrop();
  int64_t SampleLatency();
  int64_t TransferTicks(int64_t words) const;
  void EmitNetEvent(TraceEventKind kind, int site, int dir, MsgKind msg_kind,
                    int64_t words, int64_t t, const char* reason);

  NetSimConfig config_;
  LatencySpec latency_;
  bool null_ = false;
  int64_t now_ = 0;
  int64_t next_seq_ = 0;
  Xoshiro256ss rng_;
  std::vector<char> site_up_;
  std::vector<FaultTransition> transitions_;
  size_t next_transition_ = 0;
  std::priority_queue<Envelope, std::vector<Envelope>, EnvelopeLater>
      queue_;
  SimNetStats net_stats_;
  std::vector<SiteNetStats> site_stats_;
};

/// Builds the transport of one star: an EventNetwork when `net` is
/// enabled, else the synchronous Transport for `mode`. `*sim` receives
/// the event-network view, or nullptr for a synchronous transport.
std::unique_ptr<Transport> MakeTransport(TransportMode mode, int sites,
                                         const NetSimConfig& net,
                                         EventNetwork** sim);

}  // namespace sim
}  // namespace fgm

#endif  // FGM_SIM_EVENT_NETWORK_H_
