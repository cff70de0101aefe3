// Vocabulary of the message layer: how messages travel (TransportMode),
// which cost class each belongs to (MsgKind) and the per-direction word
// tally a run reports (TrafficStats). The transport that books these
// counts lives in net/transport.h.
//
// Terminology follows the paper (§2.2): *downstream* messages flow from
// child endpoints to the parent, *upstream* messages from the parent to
// children. Each message consists of words (one word stores one real
// number or one counter); the evaluation's cost metric is the number of
// words that WOULD be transmitted.

#ifndef FGM_NET_NETWORK_H_
#define FGM_NET_NETWORK_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace fgm {

/// How protocol messages travel (see net/transport.h). kAuto resolves to
/// kSerializing when the FGM_STRICT_WIRE environment variable is set to a
/// nonzero value, else kCounting.
enum class TransportMode : int {
  kAuto = 0,
  kCounting,     ///< charge word counts only (the fast simulation path)
  kSerializing,  ///< encode, cross-check, decode and deliver every message
};

/// Message classes, for cost breakdowns.
enum class MsgKind : int {
  kSafeZone = 0,   ///< reference vector E / safe-function parameters
  kQuantum,        ///< subround quantum θ (and ε_ψ bookkeeping)
  kLambda,         ///< rebalancing scale factor λ
  kCounter,        ///< subround counter increments
  kPhiValue,       ///< φ(X_i) values collected at subround end
  kDriftFlush,     ///< drift vectors (or verbatim updates) to coordinator
  kControl,        ///< poll/flush requests, violation alerts
  kRawUpdate,      ///< raw stream records (centralizing / promiscuous mode)
  kResync,         ///< crash/rejoin state snapshot (E, θ, λ, round epoch)
  kKindCount,
};

const char* MsgKindName(MsgKind kind);

struct TrafficStats {
  int64_t upstream_words = 0;
  int64_t downstream_words = 0;
  int64_t upstream_messages = 0;
  int64_t downstream_messages = 0;
  std::array<int64_t, static_cast<size_t>(MsgKind::kKindCount)>
      words_by_kind = {};

  int64_t total_words() const { return upstream_words + downstream_words; }
  int64_t total_messages() const {
    return upstream_messages + downstream_messages;
  }
  double upstream_fraction() const {
    const int64_t total = total_words();
    return total > 0 ? static_cast<double>(upstream_words) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

}  // namespace fgm

#endif  // FGM_NET_NETWORK_H_
