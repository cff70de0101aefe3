#include "net/network.h"

namespace fgm {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kSafeZone:
      return "safe-zone";
    case MsgKind::kQuantum:
      return "quantum";
    case MsgKind::kLambda:
      return "lambda";
    case MsgKind::kCounter:
      return "counter";
    case MsgKind::kPhiValue:
      return "phi-value";
    case MsgKind::kDriftFlush:
      return "drift-flush";
    case MsgKind::kControl:
      return "control";
    case MsgKind::kRawUpdate:
      return "raw-update";
    case MsgKind::kResync:
      return "resync";
    case MsgKind::kKindCount:
      break;
  }
  return "unknown";
}

}  // namespace fgm
