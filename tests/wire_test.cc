// Wire-format tests: round trips, and — crucially — that the encoded
// sizes equal the analytic word counts the protocols charge.

#include <gtest/gtest.h>

#include "net/wire.h"
#include "safezone/cheap_bound.h"
#include "util/rng.h"

namespace fgm {
namespace {

TEST(WordBuffer, PutGetRoundTrip) {
  WordBuffer buf;
  buf.PutReal(3.25);
  buf.PutCount(-42);
  buf.PutVector(RealVector{1.0, 2.0});
  EXPECT_EQ(buf.size_words(), 4u);
  EXPECT_DOUBLE_EQ(buf.GetReal(0), 3.25);
  EXPECT_EQ(buf.GetCount(1), -42);
  const RealVector v = buf.GetVector(2, 2);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(ScalarMessages, OneWordEach) {
  WordBuffer buf;
  QuantumMsg{0.5}.Encode(&buf);
  EXPECT_EQ(buf.size_words(), static_cast<size_t>(QuantumMsg::kWords));
  EXPECT_DOUBLE_EQ(QuantumMsg::Decode(buf).theta, 0.5);

  WordBuffer buf2;
  LambdaMsg{0.75}.Encode(&buf2);
  EXPECT_EQ(buf2.size_words(), static_cast<size_t>(LambdaMsg::kWords));
  EXPECT_DOUBLE_EQ(LambdaMsg::Decode(buf2).lambda, 0.75);

  WordBuffer buf3;
  CounterMsg{7}.Encode(&buf3);
  EXPECT_EQ(buf3.size_words(), static_cast<size_t>(CounterMsg::kWords));
  EXPECT_EQ(CounterMsg::Decode(buf3).increment, 7);

  WordBuffer buf4;
  PhiValueMsg{-1.5}.Encode(&buf4);
  EXPECT_EQ(buf4.size_words(), static_cast<size_t>(PhiValueMsg::kWords));
  EXPECT_DOUBLE_EQ(PhiValueMsg::Decode(buf4).value, -1.5);
}

TEST(SafeZoneMsg, CostsExactlyD) {
  // The protocols charge D words per full safe-zone shipment.
  Xoshiro256ss rng(1);
  RealVector e(100);
  for (size_t i = 0; i < e.dim(); ++i) e[i] = rng.NextGaussian();
  SafeZoneMsg msg{e};
  WordBuffer buf;
  msg.Encode(&buf);
  EXPECT_EQ(static_cast<int64_t>(buf.size_words()), msg.Words());
  EXPECT_EQ(msg.Words(), 100);
  const SafeZoneMsg decoded = SafeZoneMsg::Decode(buf);
  EXPECT_DOUBLE_EQ(Distance(decoded.reference, e), 0.0);
}

TEST(CheapZoneMsg, CostsExactlyTheCheapShippingWords) {
  CheapZoneMsg msg{1.0, 1.0, -3.5};
  WordBuffer buf;
  msg.Encode(&buf);
  EXPECT_EQ(static_cast<int64_t>(buf.size_words()), CheapZoneMsg::kWords);
  // ... which is what CheapBoundFunction advertises.
  EXPECT_EQ(CheapZoneMsg::kWords, CheapBoundFunction::kShippingWords);
  const CheapZoneMsg decoded = CheapZoneMsg::Decode(buf);
  EXPECT_DOUBLE_EQ(decoded.offset, -3.5);
}

TEST(RawUpdateMsg, PacksKeyAndSignIntoOneWord) {
  WordBuffer buf;
  RawUpdateMsg insert;
  insert.key = 0x0123456789ABCDEull;
  insert.is_delete = 0;
  insert.Encode(&buf);
  RawUpdateMsg del;
  del.key = 42;
  del.is_delete = 1;
  del.Encode(&buf);
  EXPECT_EQ(buf.size_words(), 2u);
  const RawUpdateMsg a = RawUpdateMsg::Decode(buf, 0);
  const RawUpdateMsg b = RawUpdateMsg::Decode(buf, 1);
  EXPECT_EQ(a.key, 0x0123456789ABCDEull);
  EXPECT_EQ(a.is_delete, 0u);
  EXPECT_EQ(b.key, 42u);
  EXPECT_EQ(b.is_delete, 1u);
}

TEST(DriftFlushMsg, DenseRoundTripAndSize) {
  DriftFlushMsg msg;
  msg.update_count = 500;
  msg.dense = true;
  msg.drift = RealVector{1.0, -2.0, 3.0};
  WordBuffer buf;
  msg.Encode(&buf);
  EXPECT_EQ(static_cast<int64_t>(buf.size_words()), msg.Words());
  EXPECT_EQ(msg.Words(), 4);  // 1 + D
  const DriftFlushMsg decoded = DriftFlushMsg::Decode(buf);
  EXPECT_TRUE(decoded.dense);
  EXPECT_EQ(decoded.update_count, 500);
  EXPECT_DOUBLE_EQ(decoded.drift[2], 3.0);
}

TEST(DriftFlushMsg, VerbatimRoundTripAndSize) {
  DriftFlushMsg msg;
  msg.update_count = 2;
  msg.dense = false;
  RawUpdateMsg u1;
  u1.key = 7;
  u1.is_delete = 0;
  RawUpdateMsg u2;
  u2.key = 9;
  u2.is_delete = 1;
  msg.raw = {u1, u2};
  WordBuffer buf;
  msg.Encode(&buf);
  EXPECT_EQ(static_cast<int64_t>(buf.size_words()), msg.Words());
  EXPECT_EQ(msg.Words(), 3);  // 1 + n
  const DriftFlushMsg decoded = DriftFlushMsg::Decode(buf);
  EXPECT_FALSE(decoded.dense);
  ASSERT_EQ(decoded.raw.size(), 2u);
  EXPECT_EQ(decoded.raw[1].key, 9u);
  EXPECT_EQ(decoded.raw[1].is_delete, 1u);
}

TEST(WordBuffer, CountsAbove2To53SurviveTheWire) {
  // Regression: counts used to be value-cast through the double word,
  // which silently rounds integers above 2^53.
  const int64_t counts[] = {(int64_t{1} << 53) + 1,
                            (int64_t{1} << 62) + 12345,
                            -((int64_t{1} << 53) + 1),
                            INT64_MAX,
                            INT64_MIN};
  WordBuffer buf;
  for (const int64_t c : counts) buf.PutCount(c);
  for (size_t i = 0; i < std::size(counts); ++i) {
    EXPECT_EQ(buf.GetCount(i), counts[i]) << "i=" << i;
  }
}

TEST(ControlMsg, RoundTripsEveryOpcode) {
  for (const ControlOp op : {ControlOp::kPollPhi, ControlOp::kFlushRequest,
                             ControlOp::kDriftRequest,
                             ControlOp::kViolation}) {
    WordBuffer buf;
    ControlMsg{op}.Encode(&buf);
    EXPECT_EQ(buf.size_words(), static_cast<size_t>(ControlMsg::kWords));
    EXPECT_EQ(ControlMsg::Decode(buf).op, op);
  }
}

TEST(RawUpdateMsg, TopKeyBitSurvivesTheWire) {
  // Regression: the old single-word packing (key << 1) dropped the MSB of
  // 64-bit keys. Boundary keys now spill into an extension word.
  const uint64_t keys[] = {0,
                           1,
                           (uint64_t{1} << 62) - 1,  // last 1-word key
                           uint64_t{1} << 62,        // first 2-word key
                           uint64_t{1} << 63,
                           UINT64_MAX};
  for (const uint64_t key : keys) {
    for (const bool is_delete : {false, true}) {
      RawUpdateMsg msg;
      msg.key = key;
      msg.is_delete = is_delete;
      WordBuffer buf;
      msg.Encode(&buf);
      EXPECT_EQ(static_cast<int64_t>(buf.size_words()), msg.Words());
      EXPECT_EQ(msg.Words(), (key >> 62) != 0 ? 2 : 1) << "key=" << key;
      const RawUpdateMsg decoded = RawUpdateMsg::Decode(buf, 0);
      EXPECT_EQ(decoded.key, key);
      EXPECT_EQ(decoded.is_delete, is_delete);
    }
  }
}

TEST(RawUpdateMsg, RecordRoundTrip) {
  StreamRecord record;
  record.site = 5;
  record.cid = 123456789;
  record.type = static_cast<FileType>(3);
  record.weight = -1.0;
  const RawUpdateMsg msg = RawUpdateMsg::FromRecord(record);
  WordBuffer buf;
  msg.Encode(&buf);
  const StreamRecord back = RawUpdateMsg::Decode(buf, 0).ToRecord(5);
  EXPECT_EQ(back.site, record.site);
  EXPECT_EQ(back.cid, record.cid);
  EXPECT_EQ(back.type, record.type);
  EXPECT_DOUBLE_EQ(back.weight, record.weight);
}

TEST(RawUpdateLog, BacksVerbatimFlushesUntilDenseWins) {
  RawUpdateLog log;
  StreamRecord record;
  record.site = 0;
  record.type = static_cast<FileType>(0);
  record.weight = 1.0;
  // Dense cost is 3 words: the log stays valid for up to 3 raw words.
  for (uint64_t cid = 0; cid < 3; ++cid) {
    record.cid = cid;
    log.Record(record, /*dense_words=*/3);
  }
  EXPECT_TRUE(log.valid());
  EXPECT_EQ(log.words(), 3);
  EXPECT_EQ(log.updates().size(), 3u);
  record.cid = 3;
  log.Record(record, 3);  // 4th word: verbatim can no longer win
  EXPECT_FALSE(log.valid());
  // The logged prefix is retained, and ignored, until Reset.
  EXPECT_EQ(log.updates().size(), 3u);
  log.Reset();
  EXPECT_TRUE(log.valid());
  // Unpackable records (non-unit weight) invalidate the log.
  record.weight = 2.0;
  log.Record(record, 3);
  EXPECT_FALSE(log.valid());
}

TEST(DriftFlushMsg, ForFlushPicksTheCheaperRepresentation) {
  RealVector drift{1.0, -1.0, 0.0};
  StreamRecord record;
  record.site = 0;
  record.type = static_cast<FileType>(0);
  record.weight = 1.0;

  RawUpdateLog log;
  record.cid = 7;
  log.Record(record, drift.dim());
  const DriftFlushMsg verbatim = DriftFlushMsg::ForFlush(drift, 1, log);
  EXPECT_FALSE(verbatim.dense);
  EXPECT_EQ(verbatim.Words(), 2);  // 1 + 1 raw word < 1 + D
  // The sender-local drift is populated either way.
  EXPECT_DOUBLE_EQ(verbatim.drift[0], 1.0);

  // An incomplete log (an update bypassed it) forces the dense form.
  const DriftFlushMsg dense = DriftFlushMsg::ForFlush(drift, 2, log);
  EXPECT_TRUE(dense.dense);
  EXPECT_EQ(dense.Words(), 4);  // 1 + D

  // Strict-mode wire: verbatim decodes to raw updates + empty drift.
  WordBuffer buf;
  verbatim.Encode(&buf);
  EXPECT_EQ(static_cast<int64_t>(buf.size_words()), verbatim.Words());
  const DriftFlushMsg decoded = DriftFlushMsg::Decode(buf);
  EXPECT_FALSE(decoded.dense);
  EXPECT_EQ(decoded.update_count, 1);
  ASSERT_EQ(decoded.raw.size(), 1u);
  EXPECT_EQ(decoded.raw[0].key >> 3, 7u);
  EXPECT_EQ(decoded.drift.dim(), 0u);
}

TEST(DriftFlushMsg, VerbatimWithBoundaryKeysReencodesIdentically) {
  // Property-style check over the strict-mode invariant: decode(encode(m))
  // re-encodes to the identical bits, including multi-word raw updates
  // and huge counts.
  DriftFlushMsg msg;
  msg.update_count = 3;
  msg.dense = false;
  RawUpdateMsg u1;
  u1.key = (uint64_t{1} << 62) - 1;
  RawUpdateMsg u2;
  u2.key = uint64_t{1} << 63;
  u2.is_delete = true;
  RawUpdateMsg u3;
  u3.key = UINT64_MAX;
  msg.raw = {u1, u2, u3};
  WordBuffer wire;
  msg.Encode(&wire);
  EXPECT_EQ(static_cast<int64_t>(wire.size_words()), msg.Words());
  EXPECT_EQ(msg.Words(), 1 + 1 + 2 + 2);
  const DriftFlushMsg decoded = DriftFlushMsg::Decode(wire);
  WordBuffer reencoded;
  decoded.Encode(&reencoded);
  EXPECT_TRUE(wire.SameBits(reencoded));
  EXPECT_EQ(decoded.raw[1].key, uint64_t{1} << 63);
  EXPECT_TRUE(decoded.raw[1].is_delete);

  DriftFlushMsg dense_msg;
  dense_msg.update_count = (int64_t{1} << 53) + 99;
  dense_msg.dense = true;
  dense_msg.drift = RealVector{0.5, -0.0, 3e300};
  WordBuffer dense_wire;
  dense_msg.Encode(&dense_wire);
  const DriftFlushMsg dense_decoded = DriftFlushMsg::Decode(dense_wire);
  EXPECT_EQ(dense_decoded.update_count, (int64_t{1} << 53) + 99);
  WordBuffer dense_reencoded;
  dense_decoded.Encode(&dense_reencoded);
  EXPECT_TRUE(dense_wire.SameBits(dense_reencoded));
}

TEST(DriftFlushMsg, ChargedWordsMatchesTheSmallerEncoding) {
  // The protocols charge min(D, n) + 1 — exactly the smaller of the two
  // encodings.
  for (const auto& [dim, n] : std::vector<std::pair<size_t, int64_t>>{
           {100, 5}, {100, 100}, {100, 5000}, {3, 1}}) {
    DriftFlushMsg dense_msg;
    dense_msg.update_count = n;
    dense_msg.dense = true;
    dense_msg.drift = RealVector(dim);
    DriftFlushMsg raw_msg;
    raw_msg.update_count = n;
    raw_msg.dense = false;
    raw_msg.raw.resize(static_cast<size_t>(n));
    const int64_t smaller = std::min(dense_msg.Words(), raw_msg.Words());
    EXPECT_EQ(DriftFlushMsg::ChargedWords(dim, n), smaller)
        << "dim=" << dim << " n=" << n;
  }
}

}  // namespace
}  // namespace fgm
