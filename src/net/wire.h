// Wire encodings for the protocol messages.
//
// The paper's cost model (§2.2) counts messages in *words*, each wide
// enough for one real number. This header makes those counts concrete.
// Every message struct declares the same four members — its cost-breakdown
// class kKind, its size Words(), Encode() and one Decode(const
// WordBuffer&) — so the transport (net/transport.h) charges, and in strict
// mode encodes, size-checks, decodes and bit-verifies, every message
// through one template. A deployment on a real transport can serialize
// exactly these structures.
//
// Drift transfers use whichever representation is smaller (§2.1): the
// dense D-word vector, or the verbatim list of raw updates received since
// the last flush (normally one word each, re-projected by the
// coordinator).

#ifndef FGM_NET_WIRE_H_
#define FGM_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "stream/record.h"
#include "util/real_vector.h"

namespace fgm {

/// A sequence of words; one word stores one real number or one counter.
/// Counters are bit-cast through the word, NOT value-cast: a double can
/// only represent integers exactly up to 2^53, and a real transport must
/// not corrupt large counts.
class WordBuffer {
 public:
  size_t size_words() const { return words_.size(); }

  void PutReal(double value) { words_.push_back(value); }
  void PutCount(int64_t value);
  void PutBits(uint64_t bits);
  void PutVector(const RealVector& v);

  double GetReal(size_t index) const;
  int64_t GetCount(size_t index) const;
  uint64_t GetBits(size_t index) const;
  /// Reads `dim` words starting at `index` into a vector.
  RealVector GetVector(size_t index, size_t dim) const;

  /// Bitwise equality with another buffer (strict-mode re-encode check;
  /// value comparison would miss NaN payloads and count words).
  bool SameBits(const WordBuffer& other) const;

 private:
  std::vector<double> words_;
};

/// Subround quantum θ (coordinator → site), 1 word.
struct QuantumMsg {
  static constexpr MsgKind kKind = MsgKind::kQuantum;
  static constexpr int64_t kWords = 1;
  double theta;
  int64_t Words() const { return kWords; }
  void Encode(WordBuffer* out) const { out->PutReal(theta); }
  static QuantumMsg Decode(const WordBuffer& in) {
    return QuantumMsg{in.GetReal(0)};
  }
};

/// Rebalancing scale λ (coordinator → site), 1 word.
struct LambdaMsg {
  static constexpr MsgKind kKind = MsgKind::kLambda;
  static constexpr int64_t kWords = 1;
  double lambda;
  int64_t Words() const { return kWords; }
  void Encode(WordBuffer* out) const { out->PutReal(lambda); }
  static LambdaMsg Decode(const WordBuffer& in) {
    return LambdaMsg{in.GetReal(0)};
  }
};

/// Counter increment (site → coordinator), 1 word.
struct CounterMsg {
  static constexpr MsgKind kKind = MsgKind::kCounter;
  static constexpr int64_t kWords = 1;
  int64_t increment;
  int64_t Words() const { return kWords; }
  void Encode(WordBuffer* out) const { out->PutCount(increment); }
  static CounterMsg Decode(const WordBuffer& in) {
    return CounterMsg{in.GetCount(0)};
  }
};

/// φ-value reply (site → coordinator), 1 word.
struct PhiValueMsg {
  static constexpr MsgKind kKind = MsgKind::kPhiValue;
  static constexpr int64_t kWords = 1;
  double value;
  int64_t Words() const { return kWords; }
  void Encode(WordBuffer* out) const { out->PutReal(value); }
  static PhiValueMsg Decode(const WordBuffer& in) {
    return PhiValueMsg{in.GetReal(0)};
  }
};

/// Control opcodes: poll/flush requests, drift requests and violation
/// alerts. One word on the wire.
enum class ControlOp : int64_t {
  kPollPhi = 1,    ///< coordinator asks a site for its current φ-value
  kFlushRequest,   ///< coordinator asks a site to flush its drift
  kDriftRequest,   ///< GM coordinator collects a rebalancing peer's drift
  kViolation,      ///< GM site reports a local safe-zone violation
  kPollCounter,    ///< FGM coordinator re-polls a site's cumulative counter
};

struct ControlMsg {
  static constexpr MsgKind kKind = MsgKind::kControl;
  static constexpr int64_t kWords = 1;
  ControlOp op;
  int64_t Words() const { return kWords; }
  void Encode(WordBuffer* out) const {
    out->PutCount(static_cast<int64_t>(op));
  }
  static ControlMsg Decode(const WordBuffer& in);
};

/// Full safe-zone shipment (coordinator → site): the reference vector E,
/// from which the site reconstructs φ (§2.4 step 1). D words; the decoder
/// takes D from the buffer length.
struct SafeZoneMsg {
  static constexpr MsgKind kKind = MsgKind::kSafeZone;
  RealVector reference;
  int64_t Words() const { return static_cast<int64_t>(reference.dim()); }
  void Encode(WordBuffer* out) const { out->PutVector(reference); }
  static SafeZoneMsg Decode(const WordBuffer& in) {
    return SafeZoneMsg{in.GetVector(0, in.size_words())};
  }
};

/// Crash/rejoin state snapshot (coordinator → site): the round's reference
/// vector E plus the current quantum θ, scale λ and the (round, subround)
/// epoch, from which a recovering site rebuilds its safe function and
/// re-enters the protocol. D + 4 words, charged like any other message;
/// the decoder takes D from the buffer length.
struct ResyncMsg {
  static constexpr MsgKind kKind = MsgKind::kResync;
  RealVector reference;
  double theta = 0.0;
  double lambda = 1.0;
  int64_t round = 0;
  int64_t subround = 0;

  int64_t Words() const { return static_cast<int64_t>(reference.dim()) + 4; }
  void Encode(WordBuffer* out) const {
    out->PutVector(reference);
    out->PutReal(theta);
    out->PutReal(lambda);
    out->PutCount(round);
    out->PutCount(subround);
  }
  static ResyncMsg Decode(const WordBuffer& in);
};

/// Cheap safe-function shipment (§4.2.1): (p, q, a) — here the Lipschitz
/// bound, an unused degree slot kept for parity with the paper's (p, q),
/// and the offset a = φ(0). 3 words, booked as a safe-zone shipment in
/// the cost breakdown.
struct CheapZoneMsg {
  static constexpr MsgKind kKind = MsgKind::kSafeZone;
  static constexpr int64_t kWords = 3;
  double lipschitz;
  double degree;
  double offset;
  int64_t Words() const { return kWords; }
  void Encode(WordBuffer* out) const {
    out->PutReal(lipschitz);
    out->PutReal(degree);
    out->PutReal(offset);
  }
  static CheapZoneMsg Decode(const WordBuffer& in) {
    return CheapZoneMsg{in.GetReal(0), in.GetReal(1), in.GetReal(2)};
  }
};

/// One raw stream update, shipped verbatim and re-projected by the
/// coordinator through the shared query.
///
/// The first word packs the delete flag (bit 0), an extension flag
/// (bit 1) and the low 62 key bits (bits 2..63); a key needing more than
/// 62 bits spills its high bits into a second word, so NO key bit is ever
/// silently dropped (the old single-word `key << 1` packing lost the MSB
/// of large keys).
struct RawUpdateMsg {
  static constexpr MsgKind kKind = MsgKind::kRawUpdate;
  uint64_t key = 0;
  bool is_delete = false;

  /// Words on the wire: 1 for keys below 2^62, 2 beyond.
  int64_t Words() const { return (key >> 62) != 0 ? 2 : 1; }
  void Encode(WordBuffer* out) const;
  /// Reads the update starting at `index`; a caller decoding a sequence
  /// advances by the returned message's Words().
  static RawUpdateMsg Decode(const WordBuffer& in, size_t index = 0);

  /// Packs a stream record: key = (cid << 3) | file type, delete flag from
  /// the weight's sign. Checks cid fits 61 bits and |weight| = 1.
  static RawUpdateMsg FromRecord(const StreamRecord& record);
  /// Reconstructs the record at the coordinator (time is not transmitted;
  /// it is irrelevant to re-projection).
  StreamRecord ToRecord(int site) const;
};

/// Site-local log of the raw updates received since the last flush,
/// backing the verbatim DriftFlushMsg representation. Recording stops —
/// and the verbatim option lapses — once the log would cost at least as
/// much as the dense vector, or when an update cannot be packed (non-unit
/// weight, cid beyond 61 bits) or bypassed the log.
class RawUpdateLog {
 public:
  void Record(const StreamRecord& record, size_t dense_words);
  void Reset();
  /// Marks the log out of sync with the drift (an update was applied
  /// without Record); the verbatim representation becomes unavailable.
  /// Entries already logged are kept (and ignored) until the next Reset.
  void Invalidate();

  bool valid() const { return valid_; }
  int64_t words() const { return words_; }
  const std::vector<RawUpdateMsg>& updates() const { return updates_; }

 private:
  std::vector<RawUpdateMsg> updates_;
  int64_t words_ = 0;
  bool valid_ = true;
};

/// Drift flush (site → coordinator): update count plus either the dense
/// vector or the verbatim updates, whichever is smaller.
///
/// `drift` is always populated by the SENDING site (local fast-path
/// delivery); only the representation selected by `dense` goes on the
/// wire, so a strict-mode decode of a verbatim flush delivers the raw
/// updates and an empty drift for the coordinator to re-project.
struct DriftFlushMsg {
  static constexpr MsgKind kKind = MsgKind::kDriftFlush;
  int64_t update_count = 0;
  bool dense = true;
  RealVector drift;                      // when dense (or sender-local)
  std::vector<RawUpdateMsg> raw;         // when !dense

  /// Builds the message a site sends for its current drift, choosing the
  /// cheaper representation (verbatim requires a valid, complete log).
  static DriftFlushMsg ForFlush(const RealVector& drift,
                                int64_t update_count,
                                const RawUpdateLog& log);

  void Encode(WordBuffer* out) const;
  static DriftFlushMsg Decode(const WordBuffer& in);

  /// Words on the wire: 1 (count, whose sign encodes dense/verbatim) plus
  /// D (dense) or the summed raw-update words (verbatim). This is also
  /// the amount the transport charges — one definition for both.
  int64_t Words() const;

  /// The analytic charge of the paper's cost model: min(D, n) + 1. Equals
  /// Words() of a ForFlush message whenever every raw update packs into
  /// one word (always true for the paper's workloads).
  static int64_t ChargedWords(size_t dim, int64_t update_count);
};

}  // namespace fgm

#endif  // FGM_NET_WIRE_H_
