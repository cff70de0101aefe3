// Hierarchical FGM is FgmProtocol over a TreeTopology of depth >= 2 (see
// core/fgm_protocol.h). This alias survives only because the benchmark's
// traced loop (perfbench/traced.cc) still includes this header and casts
// to the old name; drop it at the next benchmark change.

#ifndef FGM_HIER_HIER_PROTOCOL_H_
#define FGM_HIER_HIER_PROTOCOL_H_

#include "core/fgm_protocol.h"

namespace fgm {

using HierFgmProtocol = FgmProtocol;

}  // namespace fgm

#endif  // FGM_HIER_HIER_PROTOCOL_H_
