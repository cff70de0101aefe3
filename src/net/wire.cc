#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace fgm {

namespace {

double WordFromBits(uint64_t bits) {
  double word;
  static_assert(sizeof(word) == sizeof(bits));
  std::memcpy(&word, &bits, sizeof(word));
  return word;
}

uint64_t BitsFromWord(double word) {
  uint64_t bits;
  std::memcpy(&bits, &word, sizeof(bits));
  return bits;
}

}  // namespace

void WordBuffer::PutCount(int64_t value) {
  // Bit-cast, not value-cast: doubles represent integers exactly only up
  // to 2^53, and counts above that must survive the wire.
  PutBits(static_cast<uint64_t>(value));
}

void WordBuffer::PutBits(uint64_t bits) {
  words_.push_back(WordFromBits(bits));
}

void WordBuffer::PutVector(const RealVector& v) {
  for (size_t i = 0; i < v.dim(); ++i) words_.push_back(v[i]);
}

double WordBuffer::GetReal(size_t index) const {
  FGM_CHECK_LT(index, words_.size());
  return words_[index];
}

int64_t WordBuffer::GetCount(size_t index) const {
  return static_cast<int64_t>(GetBits(index));
}

uint64_t WordBuffer::GetBits(size_t index) const {
  FGM_CHECK_LT(index, words_.size());
  return BitsFromWord(words_[index]);
}

RealVector WordBuffer::GetVector(size_t index, size_t dim) const {
  FGM_CHECK_LE(index + dim, words_.size());
  RealVector v(dim);
  for (size_t i = 0; i < dim; ++i) v[i] = words_[index + i];
  return v;
}

bool WordBuffer::SameBits(const WordBuffer& other) const {
  if (words_.size() != other.words_.size()) return false;
  return words_.empty() ||
         std::memcmp(words_.data(), other.words_.data(),
                     words_.size() * sizeof(double)) == 0;
}

ControlMsg ControlMsg::Decode(const WordBuffer& in) {
  const int64_t op = in.GetCount(0);
  FGM_CHECK_GE(op, static_cast<int64_t>(ControlOp::kPollPhi));
  FGM_CHECK_LE(op, static_cast<int64_t>(ControlOp::kPollCounter));
  return ControlMsg{static_cast<ControlOp>(op)};
}

ResyncMsg ResyncMsg::Decode(const WordBuffer& in) {
  // The four scalars trail the D-word reference vector.
  FGM_CHECK_GE(in.size_words(), 4u);
  const size_t dim = in.size_words() - 4;
  ResyncMsg msg;
  msg.reference = in.GetVector(0, dim);
  msg.theta = in.GetReal(dim);
  msg.lambda = in.GetReal(dim + 1);
  msg.round = in.GetCount(dim + 2);
  msg.subround = in.GetCount(dim + 3);
  return msg;
}

void RawUpdateMsg::Encode(WordBuffer* out) const {
  const uint64_t high = key >> 62;
  const uint64_t extended = high != 0 ? 1u : 0u;
  out->PutBits((key << 2) | (extended << 1) |
               (is_delete ? uint64_t{1} : uint64_t{0}));
  if (extended) out->PutBits(high);
}

RawUpdateMsg RawUpdateMsg::Decode(const WordBuffer& in, size_t index) {
  const uint64_t bits = in.GetBits(index);
  RawUpdateMsg msg;
  msg.is_delete = (bits & 1) != 0;
  msg.key = bits >> 2;
  if ((bits & 2) != 0) {
    const uint64_t high = in.GetBits(index + 1);
    // Canonical form: the extension word holds exactly the nonzero top
    // two key bits.
    FGM_CHECK_GT(high, 0u);
    FGM_CHECK_LT(high, uint64_t{1} << 2);
    msg.key |= high << 62;
  }
  return msg;
}

RawUpdateMsg RawUpdateMsg::FromRecord(const StreamRecord& record) {
  FGM_CHECK_EQ(record.cid >> 61, 0u);
  FGM_CHECK(record.weight == 1.0 || record.weight == -1.0);
  RawUpdateMsg msg;
  msg.key = (record.cid << 3) | static_cast<uint64_t>(record.type);
  msg.is_delete = record.weight < 0.0;
  return msg;
}

StreamRecord RawUpdateMsg::ToRecord(int site) const {
  StreamRecord record;
  record.site = site;
  record.cid = key >> 3;
  record.type = static_cast<FileType>(key & 7);
  record.weight = is_delete ? -1.0 : 1.0;
  return record;
}

void RawUpdateLog::Record(const StreamRecord& record, size_t dense_words) {
  if (!valid_) return;
  if ((record.cid >> 61) != 0 ||
      (record.weight != 1.0 && record.weight != -1.0)) {
    Invalidate();
    return;
  }
  const RawUpdateMsg msg = RawUpdateMsg::FromRecord(record);
  words_ += msg.Words();
  if (words_ > static_cast<int64_t>(dense_words)) {
    // Verbatim can no longer beat the dense vector; stop paying for the
    // log.
    Invalidate();
    return;
  }
  updates_.push_back(msg);
}

void RawUpdateLog::Reset() {
  updates_.clear();
  words_ = 0;
  valid_ = true;
}

void RawUpdateLog::Invalidate() {
  // Record() stops appending once invalid, so the retained entries stay
  // bounded by the dense cost until the next Reset().
  valid_ = false;
}

DriftFlushMsg DriftFlushMsg::ForFlush(const RealVector& drift,
                                      int64_t update_count,
                                      const RawUpdateLog& log) {
  DriftFlushMsg msg;
  msg.update_count = update_count;
  msg.drift = drift;
  const bool verbatim_available =
      log.valid() &&
      static_cast<int64_t>(log.updates().size()) == update_count;
  if (verbatim_available &&
      1 + log.words() <= 1 + static_cast<int64_t>(drift.dim())) {
    msg.dense = false;
    msg.raw = log.updates();
  }
  return msg;
}

void DriftFlushMsg::Encode(WordBuffer* out) const {
  // The count's sign flags the representation (counts are nonnegative).
  out->PutCount(dense ? update_count : -update_count);
  if (dense) {
    out->PutVector(drift);
  } else {
    for (const RawUpdateMsg& u : raw) u.Encode(out);
  }
}

DriftFlushMsg DriftFlushMsg::Decode(const WordBuffer& in) {
  DriftFlushMsg msg;
  const int64_t tagged = in.GetCount(0);
  msg.dense = tagged >= 0;
  msg.update_count = tagged >= 0 ? tagged : -tagged;
  if (msg.dense) {
    // The dense payload is the rest of the message.
    msg.drift = in.GetVector(1, in.size_words() - 1);
  } else {
    msg.raw.reserve(static_cast<size_t>(msg.update_count));
    size_t index = 1;
    for (int64_t i = 0; i < msg.update_count; ++i) {
      msg.raw.push_back(RawUpdateMsg::Decode(in, index));
      index += static_cast<size_t>(msg.raw.back().Words());
    }
    FGM_CHECK_EQ(index, in.size_words());
  }
  return msg;
}

int64_t DriftFlushMsg::Words() const {
  if (dense) return 1 + static_cast<int64_t>(drift.dim());
  int64_t words = 1;
  for (const RawUpdateMsg& u : raw) words += u.Words();
  return words;
}

int64_t DriftFlushMsg::ChargedWords(size_t dim, int64_t update_count) {
  return std::min<int64_t>(static_cast<int64_t>(dim), update_count) + 1;
}

}  // namespace fgm
