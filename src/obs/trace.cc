#include "obs/trace.h"

#include <set>

#include "obs/json.h"
#include "util/check.h"

namespace fgm {

const char* Intern(const std::string& s) {
  static std::set<std::string>* pool = new std::set<std::string>();
  return pool->insert(s).first->c_str();
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRunStart:
      return "RunStart";
    case TraceEventKind::kRoundStart:
      return "RoundStart";
    case TraceEventKind::kSubroundStart:
      return "SubroundStart";
    case TraceEventKind::kSubroundEnd:
      return "SubroundEnd";
    case TraceEventKind::kIncrementMsg:
      return "IncrementMsg";
    case TraceEventKind::kDriftFlush:
      return "DriftFlush";
    case TraceEventKind::kRebalance:
      return "Rebalance";
    case TraceEventKind::kThresholdCross:
      return "ThresholdCross";
    case TraceEventKind::kMsgSent:
      return "MsgSent";
    case TraceEventKind::kPlanChosen:
      return "PlanChosen";
    case TraceEventKind::kPlanSite:
      return "PlanSite";
    case TraceEventKind::kPlanOutcome:
      return "PlanOutcome";
    case TraceEventKind::kMsgDelivered:
      return "MsgDelivered";
    case TraceEventKind::kMsgDropped:
      return "MsgDropped";
    case TraceEventKind::kSiteDown:
      return "SiteDown";
    case TraceEventKind::kSiteResync:
      return "SiteResync";
    case TraceEventKind::kAlertRaised:
      return "AlertRaised";
    case TraceEventKind::kAlertCleared:
      return "AlertCleared";
    case TraceEventKind::kTierEnd:
      return "TierEnd";
    case TraceEventKind::kRunEnd:
      return "RunEnd";
    case TraceEventKind::kKindCount:
      break;
  }
  return "unknown";
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : out_(std::fopen(path.c_str(), "w")) {
  FGM_CHECK(out_ != nullptr);
}

JsonlTraceSink::~JsonlTraceSink() {
  if (out_ != nullptr) std::fclose(out_);
}

std::string JsonlTraceSink::EventJson(const TraceEvent& e) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ev", TraceEventKindName(e.kind));
  w.Field("seq", e.seq);
  switch (e.kind) {
    case TraceEventKind::kRunStart:
      w.Field("protocol", e.label != nullptr ? e.label : "?");
      w.Field("k", static_cast<int64_t>(e.k));
      // Tree runs announce their topology spec ("tree:4", ...) and carry
      // k = the root's fan-in (its effective site count); the true leaf
      // count rides in `counter`. Flat runs leave `reason` null and stay
      // byte-identical to the historic schema.
      if (e.reason != nullptr) {
        w.Field("topology", e.reason);
        w.Field("leaves", e.counter);
      }
      break;
    case TraceEventKind::kRoundStart:
      w.Field("round", e.round);
      w.Field("k", static_cast<int64_t>(e.k));
      w.Field("psi", e.psi);
      w.Field("phi0", e.value);
      w.Field("eps_psi", e.eps);
      break;
    case TraceEventKind::kSubroundStart:
      w.Field("round", e.round);
      w.Field("subround", e.subround);
      w.Field("psi", e.psi);
      w.Field("theta", e.theta);
      break;
    case TraceEventKind::kSubroundEnd:
      w.Field("round", e.round);
      w.Field("subround", e.subround);
      w.Field("psi", e.psi);
      w.Field("counter", e.counter);
      // Only forced polls (resync recovery) carry a reason; ordinary
      // counter-exhaustion polls keep the PR-2 schema bit-identical.
      if (e.reason != nullptr) w.Field("reason", e.reason);
      // Aggregator-local polls (tree topologies) name the polling node
      // and its fan-in; root-tier polls never set these.
      if (e.tier != 0) {
        w.Field("site", static_cast<int64_t>(e.site));
        w.Field("k", static_cast<int64_t>(e.k));
      }
      break;
    case TraceEventKind::kIncrementMsg:
      w.Field("round", e.round);
      w.Field("subround", e.subround);
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("increment", e.counter);
      if (e.reason != nullptr) w.Field("reason", e.reason);
      break;
    case TraceEventKind::kDriftFlush:
      w.Field("round", e.round);
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("words", e.words);
      w.Field("updates", e.count);
      break;
    case TraceEventKind::kRebalance:
      w.Field("round", e.round);
      w.Field("lambda", e.lambda);
      w.Field("psi_b", e.value);
      w.Field("psi", e.psi);
      break;
    case TraceEventKind::kThresholdCross:
      w.Field("round", e.round);
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("psi", e.psi);
      w.Field("value", e.value);
      w.Field("reason", e.label != nullptr ? e.label : "?");
      break;
    case TraceEventKind::kMsgSent:
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("msg", e.label != nullptr ? e.label : "?");
      w.Field("dir", e.dir > 0 ? "up" : "down");
      w.Field("words", e.words);
      break;
    case TraceEventKind::kPlanChosen:
      w.Field("round", e.round);
      w.Field("full_sites", e.counter);
      w.Field("k", static_cast<int64_t>(e.k));
      w.Field("pred_len", e.pred_len);
      w.Field("pred_gain", e.pred_gain);
      w.Field("pred_rate", e.pred_rate);
      break;
    case TraceEventKind::kPlanSite:
      w.Field("round", e.round);
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("d", e.counter);
      w.Field("alpha", e.alpha);
      w.Field("beta", e.beta);
      w.Field("gamma", e.gamma);
      break;
    case TraceEventKind::kPlanOutcome:
      w.Field("round", e.round);
      w.Field("updates", e.count);
      w.Field("words", e.words);
      w.Field("pred_gain", e.pred_gain);
      w.Field("actual_gain", e.actual_gain);
      break;
    case TraceEventKind::kMsgDelivered:
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("msg", e.label != nullptr ? e.label : "?");
      w.Field("dir", e.dir > 0 ? "up" : "down");
      w.Field("words", e.words);
      w.Field("t", e.t);
      break;
    case TraceEventKind::kMsgDropped:
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("msg", e.label != nullptr ? e.label : "?");
      w.Field("dir", e.dir > 0 ? "up" : "down");
      w.Field("words", e.words);
      w.Field("t", e.t);
      w.Field("reason", e.reason != nullptr ? e.reason : "?");
      break;
    case TraceEventKind::kSiteDown:
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("t", e.t);
      w.Field("reason", e.reason != nullptr ? e.reason : "?");
      break;
    case TraceEventKind::kSiteResync:
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("round", e.round);
      w.Field("words", e.words);
      w.Field("t", e.t);
      w.Field("reason", e.reason != nullptr ? e.reason : "?");
      break;
    case TraceEventKind::kAlertRaised:
    case TraceEventKind::kAlertCleared:
      // `rule` is the alert rule's name; `site` is -1 for run-global
      // rules (ψ-margin, budget overflow, stuck subround). `value` is the
      // observed metric, `threshold` the level it crossed (raise) or
      // recovered under (clear).
      w.Field("rule", e.label != nullptr ? e.label : "?");
      w.Field("site", static_cast<int64_t>(e.site));
      w.Field("round", e.round);
      w.Field("value", e.value);
      w.Field("threshold", e.theta);
      w.Field("t", e.t);
      if (e.reason != nullptr) w.Field("reason", e.reason);
      break;
    case TraceEventKind::kTierEnd:
      // Per-tier traffic ledger of a tree-topology run (src/hier): the
      // words/messages that crossed the links between tier-`tier` nodes
      // and their children, plus that tier's endpoint count in `k`.
      // Emitted once per tier before RunEnd; never on flat runs.
      w.Field("k", static_cast<int64_t>(e.k));
      w.Field("up_words", e.up_words);
      w.Field("down_words", e.down_words);
      w.Field("up_msgs", e.up_msgs);
      w.Field("down_msgs", e.down_msgs);
      break;
    case TraceEventKind::kRunEnd:
      w.Field("events", e.count);
      w.Field("up_words", e.up_words);
      w.Field("down_words", e.down_words);
      w.Field("up_msgs", e.up_msgs);
      w.Field("down_msgs", e.down_msgs);
      break;
    case TraceEventKind::kKindCount:
      break;
  }
  // Tier stamp for tree topologies. Flat runs never set it, so every
  // pre-existing schema line stays byte-identical.
  if (e.tier != 0) w.Field("tier", static_cast<int64_t>(e.tier));
  w.EndObject();
  return w.Take();
}

void JsonlTraceSink::OnEvent(const TraceEvent& event) {
  const std::string line = EventJson(event);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
}

}  // namespace fgm
