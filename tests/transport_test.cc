// Transport-layer tests: every wire struct through every transport, and
// the headline parity property — a full protocol run
// charges bit-identical traffic and produces bit-identical estimates
// whether messages are merely counted or actually encoded, size-checked,
// decoded and delivered (strict wire accounting).

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/central.h"
#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "gm/gm_protocol.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/event_network.h"
#include "stream/window.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

std::vector<StreamRecord> SmallTrace(int sites, int64_t updates) {
  WorldCupConfig config;
  config.sites = sites;
  config.total_updates = updates;
  config.duration = 10000.0;
  config.distinct_clients = 2000;
  config.seed = 20190326;
  return GenerateWorldCupTrace(config);
}

std::unique_ptr<ContinuousQuery> SmallQuery(int sites) {
  RunConfig config;
  config.query = QueryKind::kSelfJoin;
  config.sites = sites;
  config.depth = 5;
  config.width = 32;
  config.epsilon = 0.15;
  return MakeQuery(config);
}

template <typename Protocol>
void Drive(Protocol* protocol, const std::vector<StreamRecord>& trace,
           double window) {
  SlidingWindowStream events(&trace, window);
  while (const StreamRecord* rec = events.Next()) {
    protocol->ProcessRecord(*rec);
  }
}

void ExpectSameTraffic(const TrafficStats& counting,
                       const TrafficStats& serializing) {
  EXPECT_EQ(counting.upstream_words, serializing.upstream_words);
  EXPECT_EQ(counting.downstream_words, serializing.downstream_words);
  EXPECT_EQ(counting.upstream_messages, serializing.upstream_messages);
  EXPECT_EQ(counting.downstream_messages, serializing.downstream_messages);
  for (size_t i = 0; i < counting.words_by_kind.size(); ++i) {
    EXPECT_EQ(counting.words_by_kind[i], serializing.words_by_kind[i])
        << MsgKindName(static_cast<MsgKind>(i));
  }
}

// ---------------------------------------------------------------------
// Every wire struct through every transport: the counting and serializing
// transports and a null-mode event network each charge exactly Words()
// (the encoded size) to the struct's cost class in the direction sent,
// plus exactly one word for the span-id envelope, and deliver the message
// that was sent.

std::vector<std::unique_ptr<Transport>> AllTransports(int sites) {
  std::vector<std::unique_ptr<Transport>> all;
  all.push_back(std::make_unique<Transport>(sites, TransportMode::kCounting));
  all.push_back(
      std::make_unique<Transport>(sites, TransportMode::kSerializing));
  sim::NetSimConfig net;
  net.latency = "0";
  auto event_network = std::make_unique<sim::EventNetwork>(sites, net);
  EXPECT_TRUE(event_network->null_mode());
  all.push_back(std::move(event_network));
  return all;
}

/// The cost class a struct must be charged to, and sample messages that
/// exercise its encoding.
template <typename Msg>
struct WireCase {
  MsgKind kind;
  std::vector<Msg> samples;
};

template <typename Msg>
WireCase<Msg> Case();

template <>
WireCase<QuantumMsg> Case() {
  return {MsgKind::kQuantum, {QuantumMsg{0.25}}};
}
template <>
WireCase<LambdaMsg> Case() {
  return {MsgKind::kLambda, {LambdaMsg{0.5}}};
}
template <>
WireCase<CounterMsg> Case() {
  // Above 2^53: counts must cross bit-cast, not value-cast.
  return {MsgKind::kCounter, {CounterMsg{(int64_t{1} << 53) + 7}}};
}
template <>
WireCase<PhiValueMsg> Case() {
  return {MsgKind::kPhiValue, {PhiValueMsg{-0.75}}};
}
template <>
WireCase<ControlMsg> Case() {
  return {MsgKind::kControl,
          {ControlMsg{ControlOp::kPollPhi}, ControlMsg{ControlOp::kViolation},
           ControlMsg{ControlOp::kPollCounter}}};
}
template <>
WireCase<SafeZoneMsg> Case() {
  RealVector e(10);
  e[3] = 2.5;
  return {MsgKind::kSafeZone, {SafeZoneMsg{e}}};
}
template <>
WireCase<ResyncMsg> Case() {
  ResyncMsg msg;
  msg.reference = RealVector{1.0, -2.0, 0.5};
  msg.theta = -0.125;
  msg.lambda = 0.75;
  msg.round = 12;
  msg.subround = 3;
  return {MsgKind::kResync, {msg}};
}
template <>
WireCase<CheapZoneMsg> Case() {
  // Cheap bounds are safe-zone shipments in the cost breakdown.
  return {MsgKind::kSafeZone, {CheapZoneMsg{1.5, 1.0, -4.0}}};
}
template <>
WireCase<RawUpdateMsg> Case() {
  RawUpdateMsg small;
  small.key = 42;
  small.is_delete = true;
  RawUpdateMsg wide;
  wide.key = uint64_t{1} << 63;  // spills into a second word
  return {MsgKind::kRawUpdate, {small, wide}};
}
template <>
WireCase<DriftFlushMsg> Case() {
  DriftFlushMsg dense;
  dense.update_count = 9;
  dense.drift = RealVector{1.0, -2.0, 0.5};
  DriftFlushMsg verbatim;
  verbatim.update_count = 2;
  verbatim.dense = false;
  verbatim.drift = RealVector{1.0, -2.0, 0.5};  // sender-local only
  verbatim.raw = Case<RawUpdateMsg>().samples;
  return {MsgKind::kDriftFlush, {dense, verbatim}};
}

template <typename Msg>
WordBuffer Encoded(const Msg& msg) {
  WordBuffer wire;
  msg.Encode(&wire);
  return wire;
}

template <typename Msg>
class WireMessages : public ::testing::Test {};

using AllWireMessages =
    ::testing::Types<QuantumMsg, LambdaMsg, CounterMsg, PhiValueMsg,
                     ControlMsg, SafeZoneMsg, ResyncMsg, CheapZoneMsg,
                     RawUpdateMsg, DriftFlushMsg>;
TYPED_TEST_SUITE(WireMessages, AllWireMessages);

TYPED_TEST(WireMessages, EveryTransportChargesWordsAndDeliversTheMessage) {
  using Msg = TypeParam;
  const WireCase<Msg> wire_case = Case<Msg>();
  EXPECT_EQ(Msg::kKind, wire_case.kind);
  for (const Msg& msg : wire_case.samples) {
    const WordBuffer sent = Encoded(msg);
    EXPECT_EQ(msg.Words(), static_cast<int64_t>(sent.size_words()));
    for (const bool span_wire : {false, true}) {
      for (const auto& transport : AllTransports(2)) {
        SCOPED_TRACE(std::string(transport->name()) +
                     (span_wire ? " +span_wire" : ""));
        transport->set_span_wire(span_wire);
        const Msg shipped = transport->Ship(1, msg);
        const Msg returned = transport->Send(0, msg);
        EXPECT_TRUE(Encoded(shipped).SameBits(sent));
        EXPECT_TRUE(Encoded(returned).SameBits(sent));

        const int64_t words = msg.Words() + (span_wire ? 1 : 0);
        const TrafficStats& stats = transport->stats();
        EXPECT_EQ(stats.upstream_words, words);
        EXPECT_EQ(stats.downstream_words, words);
        EXPECT_EQ(stats.upstream_messages, 1);
        EXPECT_EQ(stats.downstream_messages, 1);
        for (size_t k = 0; k < stats.words_by_kind.size(); ++k) {
          const bool charged = static_cast<MsgKind>(k) == wire_case.kind;
          EXPECT_EQ(stats.words_by_kind[k], charged ? 2 * words : 0)
              << MsgKindName(static_cast<MsgKind>(k));
        }
      }
    }
  }
}

TEST(DriftFlush, StrictPathDeliversOnlyWhatWasEncoded) {
  // A verbatim flush carries only the raw updates: the strict path must
  // not leak the sender-local dense drift, while the counting path hands
  // the message through as-is (the local drift stays available).
  const DriftFlushMsg verbatim = Case<DriftFlushMsg>().samples[1];
  ASSERT_FALSE(verbatim.dense);
  for (const auto& transport : AllTransports(1)) {
    SCOPED_TRACE(transport->name());
    const DriftFlushMsg got = transport->Send(0, verbatim);
    EXPECT_FALSE(got.dense);
    ASSERT_EQ(got.raw.size(), 2u);
    EXPECT_EQ(got.raw[1].key, uint64_t{1} << 63);
    const bool counting = std::string(transport->name()) == "counting";
    EXPECT_EQ(got.drift.dim(), counting ? 3u : 0u);
  }
}

// ---------------------------------------------------------------------
// Parity: counting and serializing runs of every protocol are
// indistinguishable — identical traffic in every breakdown and identical
// (bit-exact) estimates. The windowed FGM runs exercise rebalancing and
// verbatim flushes; FGM/O exercises cheap-zone shipments.

struct FgmParityCase {
  const char* label;
  bool rebalance;
  bool optimizer;
  double window;
};

class FgmParity : public ::testing::TestWithParam<FgmParityCase> {};

TEST_P(FgmParity, CountingAndSerializingRunsAreBitIdentical) {
  const FgmParityCase& param = GetParam();
  const int sites = 5;
  const auto trace = SmallTrace(sites, 25000);
  auto query = SmallQuery(sites);

  FgmConfig counting_config;
  counting_config.transport = TransportMode::kCounting;
  counting_config.rebalance = param.rebalance;
  counting_config.optimizer = param.optimizer;
  FgmConfig strict_config = counting_config;
  strict_config.transport = TransportMode::kSerializing;

  FgmProtocol counting(query.get(), sites, counting_config);
  FgmProtocol strict(query.get(), sites, strict_config);
  Drive(&counting, trace, param.window);
  Drive(&strict, trace, param.window);

  EXPECT_STREQ(counting.transport().name(), "counting");
  EXPECT_STREQ(strict.transport().name(), "serializing");
  ExpectSameTraffic(counting.traffic(), strict.traffic());
  EXPECT_EQ(counting.rounds(), strict.rounds());
  EXPECT_EQ(counting.subrounds(), strict.subrounds());
  EXPECT_EQ(counting.rebalances(), strict.rebalances());
  EXPECT_EQ(counting.Estimate(), strict.Estimate());
  EXPECT_DOUBLE_EQ(Distance(counting.GlobalEstimate(),
                            strict.GlobalEstimate()),
                   0.0);
  if (param.rebalance && param.window > 0) {
    // The turnstile case must actually exercise the rebalancing path.
    EXPECT_GT(counting.rebalances(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FgmParity,
    ::testing::Values(FgmParityCase{"basic", false, false, 0.0},
                      FgmParityCase{"fgm", true, false, 0.0},
                      FgmParityCase{"fgm_turnstile", true, false, 1200.0},
                      FgmParityCase{"fgmo_turnstile", true, true, 1200.0}),
    [](const ::testing::TestParamInfo<FgmParityCase>& info) {
      return std::string(info.param.label);
    });

TEST(GmParity, CountingAndSerializingRunsAreBitIdentical) {
  const int sites = 5;
  const auto trace = SmallTrace(sites, 25000);
  auto query = SmallQuery(sites);

  GmConfig counting_config;
  counting_config.transport = TransportMode::kCounting;
  GmConfig strict_config = counting_config;
  strict_config.transport = TransportMode::kSerializing;

  GmProtocol counting(query.get(), sites, counting_config);
  GmProtocol strict(query.get(), sites, strict_config);
  Drive(&counting, trace, /*window=*/1200.0);
  Drive(&strict, trace, /*window=*/1200.0);

  ExpectSameTraffic(counting.traffic(), strict.traffic());
  EXPECT_EQ(counting.rounds(), strict.rounds());
  EXPECT_EQ(counting.violations(), strict.violations());
  EXPECT_EQ(counting.partial_rebalances(), strict.partial_rebalances());
  EXPECT_GT(counting.partial_rebalances(), 0);
  EXPECT_EQ(counting.Estimate(), strict.Estimate());
  EXPECT_DOUBLE_EQ(Distance(counting.GlobalEstimate(),
                            strict.GlobalEstimate()),
                   0.0);
}

TEST(CentralParity, CountingAndSerializingRunsAreBitIdentical) {
  const int sites = 3;
  const auto trace = SmallTrace(sites, 8000);
  auto query = SmallQuery(sites);

  CentralProtocol counting(query.get(), sites, TransportMode::kCounting);
  CentralProtocol strict(query.get(), sites, TransportMode::kSerializing);
  Drive(&counting, trace, /*window=*/800.0);
  Drive(&strict, trace, /*window=*/800.0);

  ExpectSameTraffic(counting.traffic(), strict.traffic());
  EXPECT_EQ(counting.Estimate(), strict.Estimate());
  // WorldCup keys are small, so every raw update is one word and the
  // baseline's normalized cost stays exactly 1 under strict accounting.
  EXPECT_EQ(counting.traffic().downstream_words,
            counting.traffic().downstream_messages);
}

// ---------------------------------------------------------------------
// Decode errors fail loudly. A corrupted or truncated wire message must
// never be silently coerced into a plausible value: every decoder aborts
// through FGM_CHECK on the first inconsistent word.

TEST(WireDecodeDeath, TruncatedResyncPayload) {
  // A resync message ends in four fixed words (θ, λ, round, subround); a
  // shorter buffer cannot hold them.
  WordBuffer wire;
  wire.PutReal(-0.5);
  wire.PutReal(1.0);
  wire.PutCount(3);
  EXPECT_DEATH(ResyncMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, CorruptedControlOpByte) {
  WordBuffer wire;
  wire.PutCount(99);  // not a ControlOp
  EXPECT_DEATH(ControlMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, EmptyControlPayload) {
  WordBuffer wire;
  EXPECT_DEATH(ControlMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, DriftFlushClaimsMoreUpdatesThanEncoded) {
  // Verbatim header announcing 3 raw updates, but only one on the wire.
  WordBuffer wire;
  wire.PutCount(-3);
  RawUpdateMsg u;
  u.key = 7;
  u.Encode(&wire);
  EXPECT_DEATH(DriftFlushMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, DriftFlushLengthMismatchTrailingWords) {
  // Correct raw updates followed by stray words the header doesn't cover.
  WordBuffer wire;
  wire.PutCount(-1);
  RawUpdateMsg u;
  u.key = 7;
  u.Encode(&wire);
  wire.PutReal(0.0);  // junk past the declared payload
  EXPECT_DEATH(DriftFlushMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, NonCanonicalRawUpdateExtensionWord) {
  // Extension flag set but the extension word carries no high key bits —
  // a canonical encoder never produces this.
  WordBuffer wire;
  wire.PutBits(uint64_t{2});  // flags: extended=1, delete=0, key=0
  wire.PutBits(uint64_t{0});
  EXPECT_DEATH(RawUpdateMsg::Decode(wire), "FGM_CHECK failed");
}

// ---------------------------------------------------------------------
// Graceful subround-cap handling (the run used to abort on FGM_CHECK).

TEST(FgmProtocol, SubroundCapEndsTheRoundInsteadOfAborting) {
  const int sites = 5;
  const auto trace = SmallTrace(sites, 20000);
  auto query = SmallQuery(sites);
  FgmConfig config;
  config.max_subrounds_per_round = 2;  // far below the typical ~7
  FgmProtocol protocol(query.get(), sites, config);
  Drive(&protocol, trace, /*window=*/0.0);
  EXPECT_GT(protocol.overflow_rounds(), 0);
  EXPECT_GT(protocol.rounds(), 1);
  EXPECT_TRUE(std::isfinite(protocol.Estimate()));

  // An uncapped run of the same workload never overflows.
  FgmConfig uncapped;
  FgmProtocol reference(query.get(), sites, uncapped);
  Drive(&reference, trace, /*window=*/0.0);
  EXPECT_EQ(reference.overflow_rounds(), 0);
}

}  // namespace
}  // namespace fgm
