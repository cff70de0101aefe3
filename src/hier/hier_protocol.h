// Hierarchical FGM over a tree topology (scaling k toward 10⁴ sites).
//
// The flat protocol's coordinator talks to every site directly, so the
// root link carries Θ(k) words per subround. HierFgmProtocol arranges
// the k leaf sites under mid-tier AGGREGATORS (hier/topology.h): each
// aggregator runs the subround machinery over its children as a local
// coordinator — counters in its child quantum θ_t, φ-value mini-polls,
// quantum re-baselines — and simultaneously acts as a SITE toward its
// parent by exporting the sum-composed safe value of its subtree
// (Theorem 2.2: Σ_i φ(X_i) ≤ 0 site-wise implies the global bound, and
// the sum over any subtree is itself a valid summand of the parent's
// sum). The root therefore runs the flat FGM round/subround/rebalance
// machinery verbatim over m = (tier-1 node count) subtree-"sites", and
// its link carries Θ(m) words per subround instead of Θ(k).
//
// Composition invariant (per aggregator a with fan f children counting
// against quantum θ_local = θ_up / 2f):
//
//   v̂(a) = z_local + (counter_local + f)·θ_local  ≥  Σ_{leaves under a} λφ(x_i)
//
// since each child's value stays below its last-reported value plus
// (counted units + 1)·θ_local (the flat per-site counter argument,
// applied per child and summed). Aggregators export ⌊(v̂ − z_up)/θ_up⌋
// units upward monotonically, so the root's counter is a conservative
// lower bound on subtree growth in θ_root units — polls can only happen
// EARLIER than flat, never later, and every threshold guarantee of the
// flat protocol carries over.
//
// Scope: depth ≥ 2 trees of the FGM family (FGM, FGM-basic, FGM/O).
// tree:f with f ≥ k is depth 1 — the runner constructs the flat
// protocol for it, byte-identical by construction. Rebalancing and the
// FGM/O plan operate at root granularity (per tier-1 subtree).
//
// Faults (sim::EventNetwork on the ROOT tier's links): the fault plan
// targets tier-1 aggregators. A subtree whose up-link is down keeps its
// internal machinery running (those links are fine) but suppresses
// exports; the resync handshake re-ships (E, θ, λ, epoch) to the
// aggregator only — the subtree is its stable storage, and the
// "resync"-labelled subround that follows re-baselines every node.

#ifndef FGM_HIER_HIER_PROTOCOL_H_
#define FGM_HIER_HIER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fgm_config.h"
#include "core/fgm_site.h"
#include "core/optimizer.h"
#include "hier/topology.h"
#include "net/network.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "query/query.h"
#include "safezone/cheap_bound.h"
#include "safezone/safe_function.h"
#include "sim/event_network.h"
#include "util/stats.h"

namespace fgm {

class HierFgmProtocol : public MonitoringProtocol {
 public:
  /// `query` must outlive the protocol. `topo` must have depth >= 2 and
  /// leaves() == the site count of the run.
  HierFgmProtocol(const ContinuousQuery* query, const hier::TreeTopology& topo,
                  FgmConfig config);

  std::string name() const override;
  void ProcessRecord(const StreamRecord& record) override;
  const RealVector& GlobalEstimate() const override { return estimate_; }
  double Estimate() const override { return query_value_; }
  ThresholdPair CurrentThresholds() const override { return thresholds_; }
  /// Root-tier traffic: the coordinator bottleneck the paper's evaluation
  /// measures, and what the k-sweep benchmark compares against flat.
  /// Lower tiers are reported separately (tier_traffic).
  const TrafficStats& traffic() const override {
    return transports_[0]->stats();
  }
  int64_t rounds() const override { return rounds_; }
  bool BoundsCertified() const override;
  void Finish() override;
  const sim::SimNetStats* net_stats() const override {
    return sim_ != nullptr ? &sim_->net_stats() : nullptr;
  }

  const hier::TreeTopology& topology() const { return topo_; }
  /// Link tiers (= tree depth): tier 0 is the root star, tier t the links
  /// between tier-t nodes and their children.
  int tiers() const { return depth_; }
  const TrafficStats& tier_traffic(int tier) const {
    return transports_[static_cast<size_t>(tier)]->stats();
  }

  int64_t subrounds() const { return subrounds_; }
  int64_t rebalances() const { return rebalances_; }
  int64_t overflow_rounds() const { return overflow_rounds_; }
  const CountHistogram& subrounds_per_round() const {
    return subround_histogram_;
  }
  /// Fraction of tier-1 subtrees given the full safe function, averaged
  /// over rounds (FGM/O plans at root granularity).
  double mean_full_function_fraction() const;
  int64_t cheap_plan_overrides() const { return cheap_overrides_; }
  /// Aggregator-local φ-value mini-polls (tier >= 1).
  int64_t local_polls() const { return local_polls_; }

  double last_psi() const { return last_psi_; }
  double last_quantum() const { return last_theta_; }
  double current_lambda() const { return lambda_; }
  int64_t subrounds_this_round() const { return subrounds_this_round_; }
  const FgmConfig& config() const { return config_; }

 private:
  /// One mid-tier aggregator's protocol state. The node is a local
  /// coordinator for its children (z_local/counter_local against
  /// theta_local) and a site toward its parent (z_up/sent_up against
  /// theta_up).
  struct AggNode {
    int child_begin = 0;  ///< first child (global index at tier + 1)
    int child_end = 0;
    int leaves = 0;            ///< leaf sites under this node
    double theta_up = 0.0;     ///< quantum on the up-link
    double theta_local = 0.0;  ///< = theta_up / (2 · fan)
    double z_up = 0.0;         ///< export baseline toward the parent
    double z_local = 0.0;      ///< Σ children's last-reported values
    int64_t counter_local = 0;  ///< child units since the last re-baseline
    int64_t sent_up = 0;        ///< units exported since the last re-baseline
    double last_reported = 0.0;  ///< last value shipped in a poll reply
    int fan() const { return child_end - child_begin; }
  };

  AggNode& Agg(int tier, int node) {
    return aggs_[static_cast<size_t>(tier)][static_cast<size_t>(node)];
  }
  /// Conservative upper bound on Σ λφ(x_i) over the node's subtree.
  double VHat(const AggNode& a) const {
    return a.z_local +
           static_cast<double>(a.counter_local + a.fan()) * a.theta_local;
  }

  // Root-coordinator machinery (the flat protocol at m subtree-"sites").
  void StartRound();
  void EmitRoundObservability();
  void StartSubround(double psi_total, bool analytic);
  void PollAndAdvance(const char* reason = nullptr);
  void TryRebalance();
  void EndRound(bool already_flushed);
  bool CheapRoundOverBudget() const;
  double FindMuStar() const;

  // Tree cascades.
  /// Ships the round's zone (full reference or cheap bound) to every node
  /// of subtree (tier, node) below the already-served root link.
  void CascadeZone(int tier, int node, bool full);
  /// Installs a fresh up-link quantum on aggregator (tier, node) and
  /// recurses: children are (analytically or by mini-poll) re-baselined
  /// and given their local quantum.
  void CascadeSubround(int tier, int node, double theta_up, bool analytic);
  void CascadeLambda(int tier, int node, double lambda);
  /// The value child `node` at `tier` reports to a φ-value poll: a leaf's
  /// last computed λφ(x), an aggregator's v̂.
  double ChildValue(int tier, int node);
  /// Re-baselines child `node` at `tier` after its parent's mini-poll:
  /// leaves re-anchor (BeginSubround), aggregators reset their export
  /// baseline to the value they just reported (quantum unchanged — no
  /// recursion).
  void RebaselineChild(int tier, int node, double theta);
  /// Aggregator-local subround end: counter_local crossed the fan-in.
  /// Polls the children, re-baselines them, resets the local counter.
  void LocalPoll(int tier, int node);
  /// Books `units` child quantum-units at aggregator (tier, node),
  /// exports upward, and runs the local poll when the counter crosses
  /// the fan-in.
  void NoteChildUnits(int tier, int node, int64_t units);
  /// Ships ⌊(v̂ − z_up)/θ_up⌋ − sent_up fresh units up the tree (counter
  /// datagram at tier 1 under sim, synchronous increments otherwise).
  void ExportUp(int tier, int node);
  /// Applies a root-tier counter increment from tier-1 aggregator `agg`
  /// and returns true when the root must poll.
  bool ApplyRootIncrement(int agg, int64_t increment);
  /// Collects subtree (tier, node)'s drift: flush requests to every
  /// child, drifts summed, returned as ONE dense upward message (or the
  /// 1-word empty acknowledgement).
  DriftFlushMsg CollectSubtreeFlush(int tier, int node);
  /// Root side of the end-of-round / rebalance flush over every in-round
  /// subtree.
  void FlushAllSubtrees();

  // Simulated-network machinery at root granularity (tier-1 aggregators
  // are the fault domain; all no-ops when sim_ == nullptr).
  void SimTick();
  void DrainNetwork();
  void HandleFault(const sim::FaultNotice& fault);
  void HandleCounterDelivery(const sim::CounterDelivery& delivery);
  void ApplyCounterDelta(int agg, int64_t cumulative, const char* reason);
  void MaybeSilencePoll();
  void CheckDeadlines();
  void ResyncAggregator(int agg);
  void RejoinReconfigure(int agg);
  void CloseSubroundForced(const char* reason);
  bool AnyInRoundAggDown() const;
  int64_t PendingExportWeight() const;
  /// Per-tier kTierEnd traffic events (emitted once, from Finish()).
  void EmitTierEnds();

  const ContinuousQuery* query_;
  hier::TreeTopology topo_;
  int depth_;     ///< link tiers (tree depth)
  int m_;         ///< tier-1 nodes: the root's subtree-"sites"
  int k_leaves_;  ///< leaf sites
  FgmConfig config_;
  /// transports_[t] carries every tier-t parent ↔ child link, with the
  /// child's GLOBAL tier-(t+1) index as the endpoint id. Tier 0 is the
  /// root star (the sim::EventNetwork when the net sim is enabled);
  /// lower tiers are synchronous.
  std::vector<std::unique_ptr<Transport>> transports_;

  sim::EventNetwork* sim_ = nullptr;
  bool lossy_net_ = false;
  int live_m_;       ///< tier-1 members of the current round
  int live_leaves_;  ///< leaves under the in-round subtrees
  std::vector<uint8_t> agg_ok_;
  std::vector<uint8_t> in_round_;
  std::vector<int64_t> down_since_;
  std::vector<int64_t> coord_seen_ci_;
  bool paused_ = false;
  int64_t last_counter_activity_ = 0;

  TraceSink* trace_ = nullptr;
  SpanSink* spans_ = nullptr;
  HealthMonitor* health_ = nullptr;
  int64_t round_span_ = 0;
  int64_t subround_span_ = 0;
  WallTimer* sketch_timer_ = nullptr;
  WallTimer* safe_fn_timer_ = nullptr;

  RealVector estimate_;
  double query_value_ = 0.0;
  ThresholdPair thresholds_{0.0, 0.0};

  std::unique_ptr<SafeFunction> safe_fn_;
  std::unique_ptr<CheapBoundFunction> cheap_fn_;
  std::vector<std::unique_ptr<SafeFunction>> retired_safe_fns_;
  double phi_zero_ = -1.0;
  /// φ(0)·live_leaves / live_m: the per-subtree-site φ(0) the root's
  /// trace events carry, so the replay checker's flat arithmetic
  /// (ψ₀ = k·φ(0)', stop = ε·k·φ(0)', θ = −ψ/2k) certifies the root tier
  /// verbatim with k = live_m.
  double phi0_prime_ = -1.0;

  std::vector<FgmSite> sites_;                 ///< the k leaves
  std::vector<std::vector<AggNode>> aggs_;     ///< [tier][node], tiers 1..D-1
  std::vector<int> leaves1_;                   ///< leaves under tier-1 node j
  std::vector<uint8_t> plan_;                  ///< FGM/O d_j per subtree

  RealVector balance_;
  double lambda_ = 1.0;
  double psi_b_ = 0.0;

  int64_t counter_total_ = 0;
  double last_psi_ = 0.0;
  double last_theta_ = 0.0;
  int64_t subrounds_this_round_ = 0;

  bool plan_predicted_ = false;
  double plan_pred_len_ = 0.0;
  double plan_pred_gain_ = 0.0;
  double plan_pred_rate_ = 0.0;
  std::array<int64_t, static_cast<size_t>(MsgKind::kKindCount)>
      round_start_words_by_kind_{};

  std::vector<RealVector> round_drift_;     ///< per-subtree Σ flushes
  std::vector<int64_t> subtree_updates_;    ///< per-subtree updates/round
  bool have_rates_ = false;
  std::vector<SiteRates> prev_rates_;
  bool have_older_rates_ = false;
  std::vector<SiteRates> older_rates_;
  mutable std::vector<SiteRates> scratch_rates_;

  int64_t round_start_words_ = 0;
  int64_t round_start_updates_ = 0;
  int64_t total_updates_ = 0;
  double class_cost_ewma_[2] = {0.0, 0.0};
  int64_t class_cost_count_[2] = {0, 0};
  int64_t cheap_overrides_ = 0;

  int64_t rounds_ = 0;
  int64_t subrounds_ = 0;
  int64_t rebalances_ = 0;
  int64_t overflow_rounds_ = 0;
  int64_t local_polls_ = 0;
  CountHistogram subround_histogram_{64};
  int64_t full_function_ships_ = 0;
  int64_t total_function_ships_ = 0;
  bool tier_ends_emitted_ = false;

  RealVector flush_scratch_;
  RealVector flush_sum_scratch_;
};

}  // namespace fgm

#endif  // FGM_HIER_HIER_PROTOCOL_H_
