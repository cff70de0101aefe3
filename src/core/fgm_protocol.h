// The Functional Geometric Monitoring protocol (paper §2.4, §4.1, §4.2),
// over a flat star or a tree of aggregators.
//
// Rounds: the coordinator knows E = S at the start of a round, builds the
// (A, E, k)-safe function φ via the query, and ships it (or the 3-word
// cheap bound, under the FGM/O optimizer) to every site. The round
// monitors ψ = Σ_i φ(X_i) ≤ 0 through subrounds with quantum θ = -ψ/2k
// and per-site counters; when the global counter exceeds k the
// coordinator polls all φ-values and either starts another subround,
// rebalances (flush drifts into the balance vector B, rescale by λ), or
// ends the round by folding the collected drift into E.
//
// One coordinator for every topology (hier/topology.h). The root talks to
// its m children; the flat star is the depth-1 tree, whose children are
// the k leaf sites. In a deeper tree each root child is a mid-tier
// AGGREGATOR: it runs the subround machinery over its own children as a
// local coordinator — counters in its child quantum θ_t, φ-value
// mini-polls, quantum re-baselines — and acts as a SITE toward its parent
// by exporting the sum-composed safe value of its subtree (Theorem 2.2:
// the sum over any subtree is itself a valid summand of the parent's
// sum). The root's round/subround/rebalance/plan code is therefore the
// same over leaves and aggregators, and its link carries Θ(m) words per
// subround instead of Θ(k). The per-child primitives (Cascade*, ChildValue,
// CollectFlush, ChildCounter, ChildUpdatesInRound, ResyncChild) are the
// only places that tell a leaf child from an aggregator child.
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
// flat protocol carries over. Rebalancing and the FGM/O plan operate at
// root granularity (per root child).
//
// The simulation is synchronous, but every parent ↔ child interaction
// goes through a Transport as a typed wire message (net/wire.h): the
// receiving side acts on the DELIVERED message, and every word the real
// protocol would transmit is charged by the transport. Under
// TransportMode::kSerializing each message is additionally encoded,
// cross-checked against the charge, decoded and verified (strict wire
// accounting).
//
// Faults (sim::EventNetwork on the ROOT tier's links): the fault plan
// targets root children. A down leaf keeps ingesting into its local
// drift; a subtree whose up-link is down keeps its internal machinery
// running but suppresses exports. The resync handshake re-ships
// (E, θ, λ, epoch) to the child only — an aggregator's subtree is its
// stable storage — and the "resync"-labelled subround that follows
// re-baselines every node.

#ifndef FGM_CORE_FGM_PROTOCOL_H_
#define FGM_CORE_FGM_PROTOCOL_H_

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

class FgmProtocol : public MonitoringProtocol {
 public:
  /// The flat star over `num_sites` sites. `query` must outlive the
  /// protocol.
  FgmProtocol(const ContinuousQuery* query, int num_sites, FgmConfig config);
  /// `topo.leaves()` must equal the site count of the run.
  FgmProtocol(const ContinuousQuery* query, const hier::TreeTopology& topo,
              FgmConfig config);

  std::string name() const override;
  void ProcessRecord(const StreamRecord& record,
                     const std::vector<CellUpdate>& cells) override;
  void ProcessRecord(const StreamRecord& record) override;
  const RealVector& GlobalEstimate() const override { return estimate_; }
  double Estimate() const override { return query_value_; }
  ThresholdPair CurrentThresholds() const override { return thresholds_; }
  /// Root-tier traffic: the coordinator bottleneck the paper's evaluation
  /// measures. Lower tiers are reported separately (tier_traffic).
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
  /// Link tiers (= tree depth; 1 for the flat star): tier 0 is the root
  /// star, tier t the links between tier-t nodes and their children.
  int tiers() const { return depth_; }
  const TrafficStats& tier_traffic(int tier) const {
    return transports_[static_cast<size_t>(tier)]->stats();
  }
  /// Aggregator-local φ-value mini-polls (tier >= 1; 0 on the flat star).
  int64_t local_polls() const { return local_polls_; }

  int64_t subrounds() const { return subrounds_; }
  int64_t rebalances() const { return rebalances_; }
  /// Histogram of subrounds per completed round (§2.5.1 observation).
  const CountHistogram& subrounds_per_round() const {
    return subround_histogram_;
  }
  /// Fraction of root children given the full safe function, averaged
  /// over rounds (diagnostics for the FGM/O optimizer).
  double mean_full_function_fraction() const;
  const FgmConfig& config() const { return config_; }

  /// Current ψ + ψ_B as known to the coordinator after the last poll
  /// (testing hook).
  double last_psi() const { return last_psi_; }

  /// Most recent subround quantum θ = -ψ/2k (observability hook).
  double last_quantum() const { return last_theta_; }
  /// Current rebalance scale λ (1 when no rebalance is active).
  double current_lambda() const { return lambda_; }
  /// Subrounds completed so far in the current round.
  int64_t subrounds_this_round() const { return subrounds_this_round_; }

  /// Accumulated ψ-variability V = Σ_n |Δψ_n|/|ψ_n| over all completed
  /// subrounds (§2.5.1). Theorem 2.7 bounds the total subround traffic by
  /// (9k+3)·V words; see SubroundWords(). Tracked on the flat star only
  /// (stays 0 on deeper trees).
  double psi_variability() const { return psi_variability_; }

  /// Words spent on subround machinery so far (quanta, counters,
  /// φ-value polls).
  int64_t SubroundWords() const;

  /// How often the feedback guard replaced a cheap plan with the all-full
  /// plan (diagnostics).
  int64_t cheap_plan_overrides() const { return cheap_overrides_; }

  /// Rounds forcibly ended because the subround cap was hit (graceful
  /// degradation instead of aborting the run).
  int64_t overflow_rounds() const { return overflow_rounds_; }

  /// The root-tier transport (testing hook).
  const Transport& transport() const { return *transports_[0]; }

  /// The current round's safe function φ and balance vector B (testing
  /// hooks: a trace sink can re-derive a rebalance's µ* from them).
  const SafeFunction& safe_function() const { return *safe_fn_; }
  const RealVector& balance() const { return balance_; }

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

  // Root coordinator (over the m root children).
  void StartRound();
  /// Plan audit + time-series emission for the round that just ended.
  /// Runs at the top of StartRound, after EndRound's flush but before any
  /// per-round state is reset, so it sees the finished round verbatim.
  void EmitRoundObservability();
  /// `analytic`: every drift is zero (round start / post-rebalance), so
  /// aggregators re-baseline without polling their children.
  void StartSubround(double psi_total, bool analytic);
  /// `reason` labels the SubroundEnd trace event when the poll was forced
  /// by the network machinery (resync) rather than by the counter
  /// crossing live_m_; nullptr for the ordinary trigger.
  void PollAndAdvance(const char* reason = nullptr);
  void TryRebalance();
  void EndRound(bool already_flushed);
  /// True when a mostly-cheap round has outspent its budget (see
  /// FgmConfig::feedback_budget_factor).
  bool CheapRoundOverBudget() const;
  /// Bisection for µ* = inf{µ : φ(B/(µk)) ≤ 0} with k = live leaves,
  /// along the ray in O(d) per step; returns a value in [0, 1], or 1 when
  /// even µ = 1 fails.
  double FindMuStar() const;
  /// ψ_B = µkφ(B/(µk)) by one dense reference evaluation; O(D).
  double BalancePsi(double mu) const;
  /// ‖round_drift_[j]‖, computed on first use in a round.
  double RoundDriftNorm(int j);
  /// Flush request + drift reply over the root link to child `j`; the
  /// drift joins the balance vector (and, with `book_round`, the child's
  /// per-round optimizer inputs).
  void FlushChild(int j, bool book_round);
  void FlushAllChildren();
  /// Applies `delta` fresh quantum units from root child `j` (counter
  /// datagram under sim, synchronous increment otherwise).
  void ExportToRoot(int j, int64_t delta);

  // Per-node primitives. A node at tier depth_ is a leaf FgmSite; a node
  // at tier 1 .. depth_-1 is an aggregator. The root's children sit at
  // tier 1, so on the flat star they are the leaves.
  /// Installs the round's zone (full reference or cheap bound) at node
  /// (tier, node) and ships it down its subtree.
  void CascadeZone(int tier, int node, bool full);
  /// Installs a fresh quantum on node (tier, node): a leaf re-anchors; an
  /// aggregator re-baselines its children (analytically or by mini-poll)
  /// and gives them its local quantum.
  void CascadeSubround(int tier, int node, double theta_up, bool analytic);
  void CascadeLambda(int tier, int node, double lambda);
  /// The value node (tier, node) reports to a φ-value poll: a leaf's last
  /// computed λφ(x), an aggregator's v̂.
  double ChildValue(int tier, int node);
  /// The drift node (tier, node) ships to a flush request: a leaf's own
  /// flush message; an aggregator collects its children's flushes and
  /// ships their sum as ONE dense message (or the 1-word empty
  /// acknowledgement).
  DriftFlushMsg CollectFlush(int tier, int node);
  /// Root child `j`'s cumulative per-subround counter (a leaf's c_i, an
  /// aggregator's exported units).
  int64_t ChildCounter(int j) const;
  /// Updates under root child `j` in the current round.
  int64_t ChildUpdatesInRound(int j) const;
  /// Child-side half of the resync handshake for root child `j`.
  void ResyncChild(int j, const ResyncMsg& delivered);

  // Aggregator machinery (tiers 1 .. depth_-1).
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
  /// Ships ⌊(v̂ − z_up)/θ_up⌋ − sent_up fresh units up the tree.
  void ExportUp(int tier, int node);
  /// Per-tier kTierEnd traffic events (emitted once, from Finish()).
  void EmitTierEnds();

  // Simulated-network machinery at root granularity (root children are
  // the fault domain; all no-ops when sim_ == nullptr).
  /// Per-record clock tick + drain, called at the top of ProcessRecord.
  void SimTick();
  /// Drains due fault transitions and counter datagrams, then checks the
  /// dead-child deadline and the silence timeout.
  void DrainNetwork();
  void HandleFault(const sim::FaultNotice& fault);
  void HandleCounterDelivery(const sim::CounterDelivery& delivery);
  /// Applies a cumulative per-subround counter value from child `j`,
  /// emitting kIncrementMsg for the positive delta (if any).
  void ApplyCounterDelta(int j, int64_t cumulative, const char* reason);
  /// Coordinator re-polls every live member's cumulative counter after
  /// silence_timeout ticks without counter activity (lossy links only —
  /// a dropped datagram whose child then goes quiet would otherwise stall
  /// the subround forever).
  void MaybeSilencePoll();
  /// Drops members dead past dead_deadline from the round: ends the round
  /// over the surviving children (reduced-k graceful degradation).
  void CheckDeadlines();
  /// Crash/rejoin handshake for a child still in the round: re-ships the
  /// round state (E, θ, λ, epoch) as a kResync message and, once no member
  /// is down, forces a fresh labelled subround (the interrupted one is
  /// unsound — a leaf's subround baseline z_i was volatile).
  void ResyncSite(int j);
  /// Rejoin of a child that is not a round member (it was dropped by the
  /// deadline): flush its surviving drift into the balance vector, then
  /// end the round so the next one reconfigures back to full k.
  void RejoinReconfigure(int j);
  /// Emits a labelled kSubroundEnd for a subround abandoned by a forced
  /// round end (no φ-value poll happened).
  void CloseSubroundForced(const char* reason);
  bool AnyInRoundChildDown() const;
  /// Counter weight the children have accumulated this subround but the
  /// coordinator has not yet seen (in flight or dropped).
  int64_t PendingCounterWeight() const;

  const ContinuousQuery* query_;
  hier::TreeTopology topo_;
  int depth_;     ///< link tiers (tree depth; 1 = flat star)
  int m_;         ///< root children (tier-1 nodes)
  int k_leaves_;  ///< leaf sites
  FgmConfig config_;
  /// transports_[t] carries every tier-t parent ↔ child link, with the
  /// child's GLOBAL tier-(t+1) index as the endpoint id. Tier 0 is the
  /// root star (the sim::EventNetwork when the net sim is enabled);
  /// lower tiers are synchronous.
  std::vector<std::unique_ptr<Transport>> transports_;

  // Simulated network (non-owning view into transports_[0]; nullptr when
  // the protocol runs over a synchronous transport). The protocol-side
  // child state mirrors the network's link state as of the last drain.
  sim::EventNetwork* sim_ = nullptr;
  bool lossy_net_ = false;          ///< sim_ && (drop > 0 || fault plan)
  int live_m_;                      ///< root children in the current round
  int live_leaves_;                 ///< leaves under the in-round children
  std::vector<uint8_t> child_ok_;   ///< link up, as of the last drain
  std::vector<uint8_t> in_round_;   ///< membership in the current round
  std::vector<int64_t> down_since_; ///< tick of the last down transition
  std::vector<int64_t> coord_seen_ci_;  ///< cumulative counter seen/child
  bool paused_ = false;  ///< a round member is down: polls suppressed
  int64_t last_counter_activity_ = 0;

  // Observability (non-owning; null when disabled).
  TraceSink* trace_ = nullptr;
  TimeSeries* timeseries_ = nullptr;
  SpanSink* spans_ = nullptr;
  HealthMonitor* health_ = nullptr;
  int64_t round_span_ = 0;     ///< open kRound span id (0 = none)
  int64_t subround_span_ = 0;  ///< open kSubround span id (0 = none)
  WallTimer* sketch_timer_ = nullptr;
  WallTimer* safe_fn_timer_ = nullptr;
  RunningStats* plan_gain_abs_err_ = nullptr;
  RunningStats* plan_gain_rel_err_ = nullptr;

  RealVector estimate_;  // E
  double query_value_ = 0.0;
  ThresholdPair thresholds_{0.0, 0.0};

  std::unique_ptr<SafeFunction> safe_fn_;
  std::unique_ptr<CheapBoundFunction> cheap_fn_;
  /// Safe functions of earlier rounds still referenced by the evaluators
  /// of leaves under currently-down children (sim mode); freed at the
  /// first all-up round.
  std::vector<std::unique_ptr<SafeFunction>> retired_safe_fns_;
  double phi_zero_ = -1.0;
  /// φ(0) per root child: live_leaves·φ(0)/live_m on a deep tree, so the
  /// replay checker's flat arithmetic (ψ₀ = k·φ(0)', stop = ε·k·φ(0)',
  /// θ = −ψ/2k) certifies the root tier verbatim with k = live_m; φ(0)
  /// itself on the flat star (the quotient is not bit-exact there).
  double phi0_prime_ = -1.0;

  std::vector<FgmSite> sites_;              ///< the k leaves
  std::vector<std::vector<AggNode>> aggs_;  ///< [tier][node], tiers 1..D-1
  std::vector<int> leaves1_;                ///< leaves under root child j
  std::vector<uint8_t> plan_;  // d_j of the optimizer (1 = full function)

  // Rebalancing state (§4.1).
  RealVector balance_;  // B
  double lambda_ = 1.0;
  double psi_b_ = 0.0;

  // Subround tracking.
  int64_t counter_total_ = 0;  // c
  double last_psi_ = 0.0;
  double last_theta_ = 0.0;
  int64_t subrounds_this_round_ = 0;
  double psi_variability_ = 0.0;

  // Plan audit: the prediction behind the current round's plan, kept so
  // the round's outcome can be compared against it at the next boundary.
  bool plan_predicted_ = false;
  double plan_pred_len_ = 0.0;
  double plan_pred_gain_ = 0.0;
  double plan_pred_rate_ = 0.0;
  std::array<int64_t, static_cast<size_t>(MsgKind::kKindCount)>
      round_start_words_by_kind_{};

  // Optimizer inputs gathered during the round.
  std::vector<RealVector> round_drift_;   // coordinator-side per-child Σflushes
  /// ‖round_drift_[j]‖, computed once per round on first use and shared
  /// by the optimizer, the time series and the health monitor; < 0 until
  /// then.
  std::vector<double> round_drift_norm_;
  std::vector<int64_t> subtree_updates_;  // per-aggregator flushed updates
  bool have_rates_ = false;
  std::vector<SiteRates> prev_rates_;
  bool have_older_rates_ = false;
  std::vector<SiteRates> older_rates_;  // for second-order extrapolation
  mutable std::vector<SiteRates> scratch_rates_;

  // Optimizer feedback guard: measured root-tier words/update of
  // mostly-full vs mostly-cheap rounds (EWMA), see
  // FgmConfig::optimizer_feedback.
  int64_t round_start_words_ = 0;
  int64_t round_start_updates_ = 0;
  int64_t total_updates_ = 0;
  double class_cost_ewma_[2] = {0.0, 0.0};  // [0]=mostly full, [1]=cheap
  int64_t class_cost_count_[2] = {0, 0};
  int64_t cheap_overrides_ = 0;

  // Statistics.
  int64_t rounds_ = 0;
  int64_t subrounds_ = 0;
  int64_t rebalances_ = 0;
  int64_t overflow_rounds_ = 0;
  int64_t local_polls_ = 0;
  CountHistogram subround_histogram_{64};
  int64_t full_function_ships_ = 0;
  int64_t total_function_ships_ = 0;
  bool tier_ends_emitted_ = false;

  RealVector flush_scratch_;  // verbatim-flush re-projection target
  /// Root-flush re-projection target, all +0.0 between flushes: only the
  /// cells in touched_ are ever written, and they are cleared after use.
  RealVector touched_scratch_;
  std::vector<size_t> touched_;
  std::vector<CellUpdate> cells_;  // one-argument ProcessRecord's map target
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_PROTOCOL_H_
