// Tests for the transport's traffic accounting.

#include <gtest/gtest.h>

#include "net/network.h"
#include "net/transport.h"
#include "net/wire.h"

namespace fgm {
namespace {

TEST(Transport, DirectionsAndTotals) {
  Transport net(3, TransportMode::kAuto);
  net.Send(0, CounterMsg{1});
  DriftFlushMsg flush;
  flush.update_count = 99;
  flush.drift = RealVector(99);
  net.Send(1, flush);  // 1 + 99 words
  net.Ship(2, SafeZoneMsg{RealVector(500)});
  const TrafficStats& s = net.stats();
  EXPECT_EQ(s.downstream_words, 101);
  EXPECT_EQ(s.upstream_words, 500);
  EXPECT_EQ(s.downstream_messages, 2);
  EXPECT_EQ(s.upstream_messages, 1);
  EXPECT_EQ(s.total_words(), 601);
  EXPECT_EQ(s.total_messages(), 3);
  EXPECT_NEAR(s.upstream_fraction(), 500.0 / 601.0, 1e-12);
}

TEST(Transport, WordsByKindBreakdown) {
  Transport net(2, TransportMode::kAuto);
  net.Ship(0, SafeZoneMsg{RealVector(10)});
  net.Ship(1, SafeZoneMsg{RealVector(10)});
  net.Send(0, PhiValueMsg{0.5});
  const TrafficStats& s = net.stats();
  EXPECT_EQ(s.words_by_kind[static_cast<size_t>(MsgKind::kSafeZone)], 20);
  EXPECT_EQ(s.words_by_kind[static_cast<size_t>(MsgKind::kPhiValue)], 1);
  EXPECT_EQ(s.words_by_kind[static_cast<size_t>(MsgKind::kCounter)], 0);
}

TEST(Transport, ZeroTrafficFractionIsZero) {
  Transport net(1, TransportMode::kAuto);
  EXPECT_DOUBLE_EQ(net.stats().upstream_fraction(), 0.0);
}
TEST(MsgKindNames, AllDistinct) {
  for (int a = 0; a < static_cast<int>(MsgKind::kKindCount); ++a) {
    for (int b = a + 1; b < static_cast<int>(MsgKind::kKindCount); ++b) {
      EXPECT_STRNE(MsgKindName(static_cast<MsgKind>(a)),
                   MsgKindName(static_cast<MsgKind>(b)));
    }
  }
}

}  // namespace
}  // namespace fgm
