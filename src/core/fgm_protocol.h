// The Functional Geometric Monitoring protocol (paper §2.4, §4.1, §4.2).
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
// The simulation is synchronous, but every coordinator ↔ site interaction
// goes through the Transport as a typed wire message (net/wire.h): the
// receiving side acts on the DELIVERED message, and every word the real
// protocol would transmit is charged by the transport. Under
// TransportMode::kSerializing each message is additionally encoded,
// cross-checked against the charge, decoded and verified (strict wire
// accounting).

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
  /// `query` must outlive the protocol.
  FgmProtocol(const ContinuousQuery* query, int num_sites, FgmConfig config);

  std::string name() const override;
  void ProcessRecord(const StreamRecord& record) override;
  const RealVector& GlobalEstimate() const override { return estimate_; }
  double Estimate() const override { return query_value_; }
  ThresholdPair CurrentThresholds() const override { return thresholds_; }
  const TrafficStats& traffic() const override { return transport_->stats(); }
  int64_t rounds() const override { return rounds_; }
  bool BoundsCertified() const override;
  void Finish() override;
  const sim::SimNetStats* net_stats() const override {
    return sim_ != nullptr ? &sim_->net_stats() : nullptr;
  }

  int64_t subrounds() const { return subrounds_; }
  int64_t rebalances() const { return rebalances_; }
  /// Histogram of subrounds per completed round (§2.5.1 observation).
  const CountHistogram& subrounds_per_round() const {
    return subround_histogram_;
  }
  /// Fraction of sites given the full safe function, averaged over rounds
  /// (diagnostics for the FGM/O optimizer).
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
  /// (9k+3)·V words; see SubroundWords().
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

  /// The transport carrying this protocol's messages (testing hook).
  const Transport& transport() const { return *transport_; }

 private:
  void StartRound();
  /// Plan audit + time-series emission for the round that just ended.
  /// Runs at the top of StartRound, after EndRound's flush but before any
  /// per-round state is reset, so it sees the finished round verbatim.
  void EmitRoundObservability();
  void StartSubround(double psi_total);
  /// `reason` labels the SubroundEnd trace event when the poll was forced
  /// by the network machinery (resync) rather than by the counter
  /// crossing live_k_; nullptr for the ordinary trigger.
  void PollAndAdvance(const char* reason = nullptr);
  void TryRebalance();
  void EndRound(bool already_flushed);
  /// True when a mostly-cheap round has outspent its budget (see
  /// FgmConfig::feedback_budget_factor).
  bool CheapRoundOverBudget() const;
  void FlushAllSites();
  /// Bisection for µ* = inf{µ : φ(B/(µk)) ≥ 0}; returns a value in [0, 1],
  /// or 1 when even µ = 1 fails.
  double FindMuStar() const;

  // Simulated-network machinery (all no-ops when sim_ == nullptr).
  /// Per-record clock tick + drain, called at the top of ProcessRecord.
  void SimTick();
  /// Drains due fault transitions and counter datagrams, then checks the
  /// dead-site deadline and the silence timeout.
  void DrainNetwork();
  void HandleFault(const sim::FaultNotice& fault);
  void HandleCounterDelivery(const sim::CounterDelivery& delivery);
  /// Applies a cumulative per-subround counter value from `site`,
  /// emitting kIncrementMsg for the positive delta (if any).
  void ApplyCounterDelta(int site, int64_t cumulative, const char* reason);
  /// Coordinator re-polls every live member's cumulative counter after
  /// silence_timeout ticks without counter activity (lossy links only —
  /// a dropped datagram whose site then goes quiet would otherwise stall
  /// the subround forever).
  void MaybeSilencePoll();
  /// Drops members dead past dead_deadline from the round: ends the round
  /// over the surviving sites (reduced-k graceful degradation).
  void CheckDeadlines();
  /// Crash/rejoin handshake for a site still in the round: re-ships the
  /// round state (E, θ, λ, epoch) as a kResync message, rebuilds the
  /// site's evaluator over its surviving drift and, once no member is
  /// down, forces a fresh labelled subround (the interrupted one is
  /// unsound — the site's subround baseline z_i was volatile).
  void ResyncSite(int site);
  /// Rejoin of a site that is not a round member (it was dropped by the
  /// deadline): flush its surviving drift into the balance vector, then
  /// end the round so the next one reconfigures back to full k.
  void RejoinReconfigure(int site);
  /// Emits a labelled kSubroundEnd for a subround abandoned by a forced
  /// round end (no φ-value poll happened).
  void CloseSubroundForced(const char* reason);
  bool AnyInRoundSiteDown() const;
  /// Counter weight the sites have accumulated this subround but the
  /// coordinator has not yet seen (in flight or dropped).
  int64_t PendingCounterWeight() const;

  const ContinuousQuery* query_;
  int sites_k_;
  FgmConfig config_;
  std::unique_ptr<Transport> transport_;

  // Simulated network (non-owning view into transport_; nullptr when the
  // protocol runs over a synchronous transport). The protocol-side site
  // state mirrors the network's link state as of the last drain.
  sim::EventNetwork* sim_ = nullptr;
  bool lossy_net_ = false;          ///< sim_ && (drop > 0 || fault plan)
  int live_k_;                      ///< members of the current round
  std::vector<uint8_t> site_ok_;    ///< link up, as of the last drain
  std::vector<uint8_t> in_round_;   ///< membership in the current round
  std::vector<int64_t> down_since_; ///< tick of the last down transition
  std::vector<int64_t> coord_seen_ci_;  ///< cumulative counter seen/site
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
  /// of currently-down sites (sim mode); freed at the first all-up round.
  std::vector<std::unique_ptr<SafeFunction>> retired_safe_fns_;
  double phi_zero_ = -1.0;

  std::vector<FgmSite> sites_;
  std::vector<uint8_t> plan_;  // d_i of the optimizer (1 = full function)

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
  std::vector<RealVector> round_drift_;  // coordinator-side per-site Σflushes
  bool have_rates_ = false;
  std::vector<SiteRates> prev_rates_;
  bool have_older_rates_ = false;
  std::vector<SiteRates> older_rates_;  // for second-order extrapolation
  mutable std::vector<SiteRates> scratch_rates_;

  // Optimizer feedback guard: measured words/update of mostly-full vs
  // mostly-cheap rounds (EWMA), see FgmConfig::optimizer_feedback.
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
  CountHistogram subround_histogram_{64};
  int64_t full_function_ships_ = 0;
  int64_t total_function_ships_ = 0;

  RealVector flush_scratch_;  // verbatim-flush re-projection target
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_PROTOCOL_H_
