#include "core/fgm_protocol.h"

#include <algorithm>
#include <cmath>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fgm {

namespace {

// An enabled net-sim config swaps the synchronous transport for the
// discrete-event network; everything downstream only sees Transport.
std::unique_ptr<Transport> MakeFgmTransport(const FgmConfig& config,
                                            int num_sites) {
  if (config.net.enabled()) {
    return std::make_unique<sim::EventNetwork>(num_sites, config.net);
  }
  return MakeTransport(config.transport, num_sites);
}

}  // namespace

FgmProtocol::FgmProtocol(const ContinuousQuery* query, int num_sites,
                         FgmConfig config)
    : query_(query),
      sites_k_(num_sites),
      config_(config),
      transport_(MakeFgmTransport(config, num_sites)),
      live_k_(num_sites),
      estimate_(query->dimension()),
      balance_(query->dimension()) {
  FGM_CHECK(query != nullptr);
  FGM_CHECK_GE(num_sites, 1);
  FGM_CHECK_GT(config_.eps_psi, 0.0);
  FGM_CHECK_LT(config_.eps_psi, 1.0);
  FGM_CHECK_GE(config_.max_subrounds_per_round, 1);
  sites_.reserve(static_cast<size_t>(num_sites));
  round_drift_.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    sites_.emplace_back(i, query->dimension());
    round_drift_.emplace_back(query->dimension());
  }
  plan_.assign(static_cast<size_t>(num_sites), 1);
  site_ok_.assign(static_cast<size_t>(num_sites), 1);
  in_round_.assign(static_cast<size_t>(num_sites), 1);
  down_since_.assign(static_cast<size_t>(num_sites), 0);
  coord_seen_ci_.assign(static_cast<size_t>(num_sites), 0);
  if (config_.net.enabled()) {
    sim_ = static_cast<sim::EventNetwork*>(transport_.get());
    lossy_net_ = config_.net.lossy();
  }
  // Observability hooks must be live before the first round is traced.
  trace_ = config_.trace;
  timeseries_ = config_.timeseries;
  spans_ = config_.spans;
  health_ = config_.health;
  if (health_ != nullptr && trace_ != nullptr) health_->set_trace(trace_);
  if (trace_ != nullptr) transport_->set_trace(trace_);
  if (spans_ != nullptr) transport_->set_spans(spans_);
  if (config_.span_wire) transport_->set_span_wire(true);
  if (config_.metrics != nullptr) {
    transport_->set_metrics(config_.metrics);
    sketch_timer_ = config_.metrics->GetTimer("sketch_update");
    safe_fn_timer_ = config_.metrics->GetTimer("safe_fn_eval");
    if (config_.optimizer) {
      plan_gain_abs_err_ = config_.metrics->GetStats("plan_gain_abs_err");
      plan_gain_rel_err_ = config_.metrics->GetStats("plan_gain_rel_err");
    }
  }
  StartRound();
  // The very first round has no previous round to count against; its
  // setup traffic is still charged (the coordinator must distribute the
  // initial safe functions).
}

std::string FgmProtocol::name() const {
  if (config_.optimizer) return "FGM/O";
  return config_.rebalance ? "FGM" : "FGM-basic";
}

void FgmProtocol::ProcessRecord(const StreamRecord& record) {
  if (sim_ != nullptr) SimTick();
  FGM_CHECK(record.site >= 0 && record.site < sites_k_);
  const size_t s = static_cast<size_t>(record.site);
  const int64_t increment =
      sites_[s].Process(*query_, record, sketch_timer_, safe_fn_timer_);
  ++total_updates_;
  if (increment <= 0) return;
  if (sim_ != nullptr) {
    // Sites post their CUMULATIVE per-subround counter as a one-word
    // fire-and-forget datagram: a lost or reordered datagram is healed by
    // any later one (the coordinator applies positive deltas only). A
    // site outside the round — or down — keeps ingesting records into its
    // local drift but posts nothing; its contribution reaches E at the
    // next resync/flush.
    if (site_ok_[s] != 0 && in_round_[s] != 0) {
      sim_->PostCounter(record.site, CounterMsg{sites_[s].counter()},
                        rounds_, subrounds_this_round_);
      DrainNetwork();
    }
    return;
  }
  // One-word message carrying the increase to c_i.
  const CounterMsg delivered =
      transport_->SendCounter(record.site, CounterMsg{increment});
  counter_total_ += delivered.increment;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kIncrementMsg;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.site = record.site;
    e.counter = delivered.increment;
    trace_->Emit(e);
  }
  if (counter_total_ > sites_k_) PollAndAdvance();
}

void FgmProtocol::StartRound() {
  // Observe the finished round before any of its state is reset: plan
  // outcome vs prediction, and the round's time-series sample. The words
  // booked here fall strictly between this round's RoundStart event and
  // its PlanOutcome, which is what lets the replay checker re-sum them.
  if (spans_ != nullptr && round_span_ != 0) {
    spans_->End(round_span_);
    round_span_ = 0;
  }
  if (rounds_ > 0) EmitRoundObservability();

  // Book the ending round's measured cost rate under its plan class
  // (feedback guard input), then snapshot for the new round.
  if (rounds_ > 0 && config_.optimizer) {
    const int64_t words =
        transport_->stats().total_words() - round_start_words_;
    const int64_t updates = total_updates_ - round_start_updates_;
    if (updates > 0) {
      int64_t full_count = 0;
      for (uint8_t d : plan_) full_count += d;
      // Class 1 = "has cheap sites": even a few cheap bounds can poison a
      // round with variability-driven subround churn.
      const size_t cls = (full_count < sites_k_) ? 1 : 0;
      const double rate =
          static_cast<double>(words) / static_cast<double>(updates);
      class_cost_ewma_[cls] = class_cost_count_[cls] == 0
                                  ? rate
                                  : 0.7 * class_cost_ewma_[cls] + 0.3 * rate;
      ++class_cost_count_[cls];
    }
  }
  round_start_words_ = transport_->stats().total_words();
  round_start_words_by_kind_ = transport_->stats().words_by_kind;
  round_start_updates_ = total_updates_;

  ++rounds_;
  if (spans_ != nullptr) {
    // Rounds parent to the run, never to whatever scope triggered them
    // (a reconfigure's resync scope outlives no round).
    round_span_ = spans_->BeginWithParent(SpanKind::kRound, -1, rounds_, 0,
                                          nullptr, spans_->root());
  }
  if (rounds_ > 1) {
    subround_histogram_.Add(subrounds_this_round_);
  }
  subrounds_this_round_ = 0;

  // Round membership: every site whose link is up joins. A site dropped
  // by the dead-site deadline keeps accumulating drift locally and is
  // re-admitted (after a flush) by the first StartRound following its
  // rejoin. In synchronous mode every site is always a member.
  if (sim_ != nullptr) {
    live_k_ = 0;
    for (int i = 0; i < sites_k_; ++i) {
      in_round_[static_cast<size_t>(i)] = site_ok_[static_cast<size_t>(i)];
      live_k_ += site_ok_[static_cast<size_t>(i)] != 0 ? 1 : 0;
    }
    FGM_CHECK_GE(live_k_, 1);  // the fault plan killed every site
    paused_ = false;
  }

  query_value_ = query_->Evaluate(estimate_);
  thresholds_ = query_->Thresholds(estimate_);
  // A site that is down right now keeps accumulating drift through an
  // evaluator built against the OUTGOING round's safe function, and only
  // rebuilds it at resync. Keep retired safe functions alive until a
  // round starts with every site up (when no evaluator can reference
  // them any longer). The cheap bound needs the same treatment: a site
  // that crashed on a d = 0 plan evaluates the outgoing round's b(x)
  // until its resync rebuilds φ.
  if (sim_ != nullptr && safe_fn_ != nullptr) {
    if (live_k_ < sites_k_) {
      retired_safe_fns_.push_back(std::move(safe_fn_));
      if (cheap_fn_ != nullptr) {
        retired_safe_fns_.push_back(std::move(cheap_fn_));
      }
    } else {
      retired_safe_fns_.clear();
    }
  }
  safe_fn_ = query_->MakeSafeFunction(estimate_);
  phi_zero_ = safe_fn_->AtZero();
  FGM_CHECK_LT(phi_zero_, 0.0);
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kRoundStart;
    e.round = rounds_;
    e.k = live_k_;
    e.psi = static_cast<double>(live_k_) * phi_zero_;
    e.value = phi_zero_;
    e.eps = config_.eps_psi;
    trace_->Emit(e);
  }
  cheap_fn_ =
      std::make_unique<CheapBoundFunction>(CheapBoundFunction::For(*safe_fn_));

  // FGM/O: choose the per-site plan from the previous round's rates. The
  // fixed per-round overhead covers the expected subround traffic
  // ((3k+1) words per subround, ~log2(1/ε_ψ) subrounds) plus the
  // end-of-round poll and flush acknowledgements.
  const std::vector<SiteRates>* rates_used = nullptr;
  // A reduced-k round (a site dead past the deadline) ships full zones to
  // the survivors: the optimizer's cost model prices a full-k round.
  if (config_.optimizer && have_rates_ && live_k_ == sites_k_) {
    const double k = static_cast<double>(sites_k_);
    const double overhead =
        (3.0 * k + 1.0) * std::log2(1.0 / config_.eps_psi) + 4.0 * k;
    // Health-aware planning: once the monitor's EWMAs have warmed up,
    // plan from the smoothed per-site rates (a one-round spike no longer
    // flips the plan) and charge each site its expected shipping cost
    // over its live link quality.
    const bool health_rates = config_.health_planning && health_ != nullptr &&
                              health_->have_rates();
    HealthView health_view;
    const HealthView* view = nullptr;
    if (health_rates) {
      scratch_rates_.assign(static_cast<size_t>(sites_k_), SiteRates{});
      double gamma_sum = 0.0;
      for (int i = 0; i < sites_k_; ++i) {
        if (health_->rate_rounds(i) > 0) gamma_sum += health_->rate_gamma(i);
      }
      for (int i = 0; i < sites_k_; ++i) {
        SiteRates& r = scratch_rates_[static_cast<size_t>(i)];
        if (health_->rate_rounds(i) == 0) {
          r.active = false;  // never reported: excluded, forced d = 0
          continue;
        }
        r.alpha = health_->rate_alpha(i);
        r.beta = health_->rate_beta(i);
        // The EWMA gammas need not sum to 1 (sites observe different
        // round subsets); renormalize so the γ_i·τ downstream term keeps
        // its share-of-stream meaning.
        r.gamma = gamma_sum > 0.0 ? health_->rate_gamma(i) / gamma_sum : 0.0;
        if (r.alpha <= 0.0) r.alpha = 1e-12;
        if (r.beta < r.alpha) r.beta = r.alpha;
        r.active = r.beta > 0.0;
      }
      health_view.ship_cost.resize(static_cast<size_t>(sites_k_));
      for (int i = 0; i < sites_k_; ++i) {
        health_view.ship_cost[static_cast<size_t>(i)] =
            health_->ShipCostFactor(i);
      }
      view = &health_view;
    }
    const std::vector<SiteRates>& rates =
        health_rates
            ? scratch_rates_
            : ((config_.optimizer_second_order && have_older_rates_)
                   ? (scratch_rates_ =
                          ExtrapolateRates(older_rates_, prev_rates_))
                   : prev_rates_);
    rates_used = &rates;
    const RoundPlan round_plan = OptimizeRoundPlan(
        rates, static_cast<int64_t>(query_->dimension()), overhead, view);
    plan_ = round_plan.full_function;
    plan_predicted_ = true;
    plan_pred_len_ = round_plan.predicted_length;
    plan_pred_gain_ = round_plan.predicted_gain;
    plan_pred_rate_ = round_plan.predicted_rate;
    // Feedback guard: if mostly-cheap rounds have measurably cost more
    // per update than mostly-full rounds, override a cheap plan (§4.2.5's
    // "fooled optimizer" failure mode). Probe rounds pass unguarded.
    if (config_.optimizer_feedback &&
        rounds_ % config_.feedback_probe_period != 0) {
      int64_t full_count = 0;
      for (uint8_t d : plan_) full_count += d;
      const bool has_cheap = full_count < sites_k_;
      if (has_cheap && class_cost_count_[0] > 0 &&
          class_cost_count_[1] > 0 &&
          class_cost_ewma_[1] >
              config_.feedback_margin * class_cost_ewma_[0]) {
        plan_.assign(static_cast<size_t>(sites_k_), 1);
        ++cheap_overrides_;
        // The executed plan is no longer the one the model priced; its
        // prediction would audit a round that never ran.
        plan_predicted_ = false;
      }
    }
  } else {
    plan_.assign(static_cast<size_t>(sites_k_), 1);
    plan_predicted_ = false;
  }
  if (!plan_predicted_) {
    plan_pred_len_ = 0.0;
    plan_pred_gain_ = 0.0;
    plan_pred_rate_ = 0.0;
  }

  // Plan audit: what FGM/O decided and why, before the round's traffic.
  if (trace_ != nullptr && config_.optimizer) {
    int64_t full_sites = 0;
    for (uint8_t d : plan_) full_sites += d;
    TraceEvent e;
    e.kind = TraceEventKind::kPlanChosen;
    e.round = rounds_;
    e.counter = full_sites;
    e.k = sites_k_;
    e.pred_len = plan_pred_len_;
    e.pred_gain = plan_pred_gain_;
    e.pred_rate = plan_pred_rate_;
    trace_->Emit(e);
    if (rates_used != nullptr) {
      for (int i = 0; i < sites_k_; ++i) {
        const SiteRates& r = (*rates_used)[static_cast<size_t>(i)];
        TraceEvent s;
        s.kind = TraceEventKind::kPlanSite;
        s.round = rounds_;
        s.site = i;
        s.counter = plan_[static_cast<size_t>(i)];
        s.alpha = r.alpha;
        s.beta = r.beta;
        s.gamma = r.gamma;
        trace_->Emit(s);
      }
    }
  }

  for (int i = 0; i < sites_k_; ++i) {
    FgmSite& site = sites_[static_cast<size_t>(i)];
    round_drift_[static_cast<size_t>(i)].SetZero();
    if (in_round_[static_cast<size_t>(i)] == 0) continue;
    if (plan_[static_cast<size_t>(i)]) {
      // Ship E; the site reconstructs φ from it (§2.4 step 1).
      transport_->ShipSafeZone(i, SafeZoneMsg{estimate_});
      site.BeginRound(safe_fn_.get());
      ++full_function_ships_;
    } else {
      // Ship the 3-word cheap bound (§4.2.1).
      transport_->ShipCheapZone(
          i, CheapZoneMsg{cheap_fn_->LipschitzBound(), 1.0,
                          cheap_fn_->AtZero()});
      site.BeginRound(cheap_fn_.get());
    }
    ++total_function_ships_;
  }

  balance_.SetZero();
  lambda_ = 1.0;
  psi_b_ = 0.0;

  // Initially ψ = kφ(0) (both φ and b share the value at zero).
  StartSubround(static_cast<double>(live_k_) * phi_zero_);
}

void FgmProtocol::EmitRoundObservability() {
  if (trace_ == nullptr && timeseries_ == nullptr &&
      plan_gain_abs_err_ == nullptr && health_ == nullptr) {
    return;
  }
  const TrafficStats& t = transport_->stats();
  const int64_t round_words = t.total_words() - round_start_words_;
  const int64_t round_updates = total_updates_ - round_start_updates_;
  // Gain is measured against the centralizing baseline's one word per
  // update, the same normalization the optimizer's g(d) uses.
  const double actual_gain =
      static_cast<double>(round_updates) - static_cast<double>(round_words);
  if (trace_ != nullptr && config_.optimizer) {
    TraceEvent e;
    e.kind = TraceEventKind::kPlanOutcome;
    e.round = rounds_;
    e.count = round_updates;
    e.words = round_words;
    e.pred_gain = plan_pred_gain_;
    e.actual_gain = actual_gain;
    trace_->Emit(e);
  }
  if (plan_gain_abs_err_ != nullptr && plan_predicted_) {
    const double err = std::fabs(plan_pred_gain_ - actual_gain);
    plan_gain_abs_err_->Add(err);
    plan_gain_rel_err_->Add(err /
                            std::max(std::fabs(actual_gain), 1.0));
  }
  if (timeseries_ != nullptr || health_ != nullptr) {
    static_assert(kSnapshotMsgKinds == static_cast<int>(MsgKind::kKindCount),
                  "RunSnapshot's kind slots must cover every MsgKind");
    RunSnapshot s;
    s.kind = "round";
    s.records = total_updates_;
    s.round = rounds_;
    s.subrounds = subrounds_this_round_;
    s.total_subrounds = subrounds_;
    s.psi = last_psi_;
    s.theta = last_theta_;
    s.lambda = lambda_;
    s.total_words = t.total_words();
    s.round_words = round_words;
    for (size_t i = 0; i < s.words_by_kind.size(); ++i) {
      s.words_by_kind[i] = t.words_by_kind[i];
      s.round_words_by_kind[i] =
          t.words_by_kind[i] - round_start_words_by_kind_[i];
    }
    for (uint8_t d : plan_) s.plan_full_sites += d;
    s.pred_gain = plan_pred_gain_;
    s.actual_gain = actual_gain;
    int64_t updates_sum = 0;
    for (int i = 0; i < sites_k_; ++i) {
      const int64_t u = sites_[static_cast<size_t>(i)].updates_in_round();
      updates_sum += u;
      s.site_updates_max = std::max(s.site_updates_max, u);
      const double norm = round_drift_[static_cast<size_t>(i)].Norm();
      if (norm > s.drift_norm_max) {
        s.drift_norm_max = norm;
        s.hot_site = i;
      }
      s.drift_norm_mean += norm;
    }
    s.site_updates_mean =
        static_cast<double>(updates_sum) / static_cast<double>(sites_k_);
    s.drift_norm_mean /= static_cast<double>(sites_k_);
    if (sim_ != nullptr) {
      const sim::SimNetStats& n = sim_->net_stats();
      s.in_flight_words = n.in_flight_words;
      s.max_in_flight_words = n.max_in_flight_words;
      s.retransmit_words = n.retransmitted_words;
      s.dropped_words = n.dropped_words;
      s.resyncs = n.resyncs;
    }
    if (timeseries_ != nullptr) timeseries_->Record(s);
    if (health_ != nullptr) {
      // This runs before ++rounds_ / membership / φ rebuild, so live_k_
      // and phi_zero_ still describe the finished round — exactly the
      // values its stop level was computed from.
      health_->ObserveRound(s);
      for (int i = 0; i < sites_k_; ++i) {
        health_->ObserveSite(i, sites_[static_cast<size_t>(i)].updates_in_round(),
                             round_drift_[static_cast<size_t>(i)].Norm());
      }
      if (sim_ != nullptr) {
        const std::vector<sim::SiteNetStats>& per_site = sim_->site_stats();
        for (int i = 0; i < sites_k_; ++i) {
          const sim::SiteNetStats& n = per_site[static_cast<size_t>(i)];
          SiteNetSample sample;
          sample.delivered_msgs = n.delivered_msgs;
          sample.delivered_words = n.delivered_words;
          sample.dropped_msgs = n.dropped_msgs;
          sample.dropped_words = n.dropped_words;
          sample.retransmitted_msgs = n.retransmitted_msgs;
          sample.retransmitted_words = n.retransmitted_words;
          sample.latency_ticks = n.latency_ticks;
          sample.latency_samples = n.latency_samples;
          sample.downs = n.downs;
          health_->ObserveNet(i, sample);
        }
      }
      health_->ObservePsiMargin(
          last_psi_,
          config_.eps_psi * static_cast<double>(live_k_) * phi_zero_);
      health_->ObserveOverflowRounds(overflow_rounds_);
      health_->EvaluateAlerts(rounds_, sim_ != nullptr ? sim_->now() : 0);
    }
  }
}

void FgmProtocol::StartSubround(double psi_total) {
  FGM_CHECK_LT(psi_total, 0.0);
  last_psi_ = psi_total;
  const double quantum = -psi_total / (2.0 * static_cast<double>(live_k_));
  last_theta_ = quantum;
  counter_total_ = 0;
  ++subrounds_;
  ++subrounds_this_round_;
  if (spans_ != nullptr) {
    subround_span_ =
        spans_->BeginWithParent(SpanKind::kSubround, -1, rounds_,
                                subrounds_this_round_, nullptr, round_span_);
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kSubroundStart;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.psi = psi_total;
    e.theta = quantum;
    trace_->Emit(e);
  }
  for (int i = 0; i < sites_k_; ++i) {
    if (in_round_[static_cast<size_t>(i)] == 0) continue;
    FgmSite& site = sites_[static_cast<size_t>(i)];
    const QuantumMsg delivered =
        transport_->ShipQuantum(i, QuantumMsg{quantum});
    site.BeginSubround(delivered.theta);
    coord_seen_ci_[static_cast<size_t>(i)] = 0;
  }
  if (sim_ != nullptr) last_counter_activity_ = sim_->now();
}

void FgmProtocol::PollAndAdvance(const char* reason) {
  // Collect all φ(X_i): k one-word poll requests + k one-word replies.
  double psi = 0.0;
  double delta_psi = 0.0;  // Δψ_n of §2.5.1: Σ_i (sup Φ_i,n - inf Φ_i,n)
  for (int i = 0; i < sites_k_; ++i) {
    if (in_round_[static_cast<size_t>(i)] == 0) continue;
    const FgmSite& site = sites_[static_cast<size_t>(i)];
    transport_->ShipControl(i, ControlMsg{ControlOp::kPollPhi});
    const PhiValueMsg reply =
        transport_->SendPhiValue(i, PhiValueMsg{site.last_value()});
    psi += reply.value;
    delta_psi += site.SubroundValueRange();
  }
  last_psi_ = psi + psi_b_;
  if (last_psi_ != 0.0) {
    psi_variability_ += delta_psi / std::fabs(last_psi_);
  }
  if (spans_ != nullptr && subround_span_ != 0) {
    // Closed after the poll RPCs: the subround span covers the wait for
    // every member's φ reply, which is what gates its critical path.
    spans_->End(subround_span_, reason);
    subround_span_ = 0;
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kSubroundEnd;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.psi = last_psi_;
    e.counter = counter_total_;
    e.reason = reason;
    trace_->Emit(e);
  }
  const double stop_level =
      config_.eps_psi * static_cast<double>(live_k_) * phi_zero_;
  if (last_psi_ >= stop_level) {
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kThresholdCross;
      e.round = rounds_;
      e.psi = last_psi_;
      e.value = stop_level;
      e.label = "psi-exhausted";
      trace_->Emit(e);
    }
    // Subrounds exhausted for this safe function / scale.
    if (config_.rebalance) {
      TryRebalance();
    } else {
      EndRound(/*already_flushed=*/false);
    }
  } else if (CheapRoundOverBudget()) {
    // A mispredicted cheap plan is burning subround overhead; cut the
    // round so the feedback guard can redirect the next one.
    EndRound(/*already_flushed=*/false);
  } else if (subrounds_this_round_ >= config_.max_subrounds_per_round) {
    // Subround cap reached: end the round instead of aborting the run.
    ++overflow_rounds_;
    EndRound(/*already_flushed=*/false);
  } else {
    StartSubround(last_psi_);
  }
}

bool FgmProtocol::CheapRoundOverBudget() const {
  if (!config_.optimizer || !config_.optimizer_feedback) return false;
  int64_t full_count = 0;
  for (uint8_t d : plan_) full_count += d;
  if (full_count >= sites_k_) return false;
  const double k = static_cast<double>(sites_k_);
  const double full_round_words =
      k * static_cast<double>(query_->dimension()) +
      (3.0 * k + 1.0) * std::log2(1.0 / config_.eps_psi) + 4.0 * k;
  const double spent = static_cast<double>(
      transport_->stats().total_words() - round_start_words_);
  return spent > config_.feedback_budget_factor * full_round_words;
}

void FgmProtocol::FlushAllSites() {
  for (int i = 0; i < sites_k_; ++i) {
    // Non-members flush at their rejoin reconfiguration instead; a member
    // that is down (deadline-triggered round end) keeps its un-flushed
    // drift locally until it rejoins.
    if (in_round_[static_cast<size_t>(i)] == 0) continue;
    if (sim_ != nullptr && site_ok_[static_cast<size_t>(i)] == 0) continue;
    FgmSite& site = sites_[static_cast<size_t>(i)];
    transport_->ShipControl(i, ControlMsg{ControlOp::kFlushRequest});
    // The site ships either the dense drift or the verbatim raw updates,
    // whichever is smaller, plus its update count (§2.1, §4.2.4). The
    // message itself is the single definition of the flush cost; an
    // empty-stream site's flush is the 1-word acknowledgement (§5.4).
    const DriftFlushMsg delivered =
        transport_->SendDriftFlush(i, site.MakeFlushMsg());
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kDriftFlush;
      e.round = rounds_;
      e.site = i;
      e.words = delivered.Words();
      e.count = delivered.update_count;
      trace_->Emit(e);
    }
    if (delivered.update_count > 0) {
      const RealVector& drift =
          DeliveredDrift(delivered, *query_, i, &flush_scratch_);
      balance_ += drift;
      round_drift_[static_cast<size_t>(i)] += drift;
      site.FlushReset();
    }
  }
}

double FgmProtocol::FindMuStar() const {
  // g(µ) = φ(B/(µk)) is monotone along the ray (φ convex, φ(0) < 0):
  // {µ : g(µ) ≤ 0} = [µ*, ∞). Bisection on [lo, 1].
  if (balance_.Norm() == 0.0) return 0.0;
  const double k = static_cast<double>(live_k_);
  RealVector scaled(balance_.dim());
  auto g = [&](double mu) {
    scaled = balance_;
    scaled *= 1.0 / (mu * k);
    return safe_fn_->Eval(scaled);
  };
  if (g(1.0) >= 0.0) return 1.0;
  double lo = 1e-6, hi = 1.0;
  if (g(lo) < 0.0) return 0.0;  // B/k direction never leaves the zone
  const double tol = config_.bisection_tol * std::fabs(phi_zero_);
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double v = g(mid);
    if (v < 0.0) {
      hi = mid;
      if (v > -tol) break;
    } else {
      lo = mid;
    }
  }
  // Return the safe side (g(hi) ≤ 0 so ψ_B ≤ 0).
  return hi;
}

void FgmProtocol::TryRebalance() {
  // The subround cap also bounds rebalancing-extended rounds: end the
  // round gracefully instead of stretching it further.
  if (subrounds_this_round_ >= config_.max_subrounds_per_round) {
    ++overflow_rounds_;
    EndRound(/*already_flushed=*/false);
    return;
  }
  // Rebalancing buys longer rounds at the price of extra subround
  // overhead; when the next round's zone shipping is nearly free (e.g.
  // the optimizer chose cheap bounds everywhere), ending the round is
  // cheaper than stretching it.
  double plan_words = 0.0;
  for (int i = 0; i < sites_k_; ++i) {
    if (in_round_[static_cast<size_t>(i)] == 0) continue;
    plan_words += plan_[static_cast<size_t>(i)]
                      ? static_cast<double>(query_->dimension())
                      : CheapBoundFunction::kShippingWords;
  }
  // Under health-aware planning the profitability bar rises with the
  // fleet-mean shipping cost: a rebalance whose flush + λ traffic must
  // cross lossy/slow/down links has to save proportionally more re-ship
  // words to pay for itself.
  double min_words_per_site = config_.rebalance_min_words_per_site;
  if (config_.health_planning && health_ != nullptr) {
    min_words_per_site *= health_->RebalanceCostFactor();
  }
  if (plan_words / static_cast<double>(live_k_) < min_words_per_site) {
    EndRound(/*already_flushed=*/false);
    return;
  }
  FlushAllSites();
  const double k = static_cast<double>(live_k_);
  const double mu = FindMuStar();
  const double lambda = 1.0 - mu;
  if (lambda < config_.min_lambda) {
    EndRound(/*already_flushed=*/true);
    return;
  }
  // ψ_B = µkφ(B/(µk)) ≤ 0 by the bisection's choice of µ.
  if (mu > 0.0) {
    RealVector scaled = balance_;
    scaled *= 1.0 / (mu * k);
    psi_b_ = mu * k * safe_fn_->Eval(scaled);
    FGM_CHECK_LE(psi_b_, 0.0);
  } else {
    psi_b_ = 0.0;
  }
  lambda_ = lambda;
  // All drifts are zero after the flush, so ψ = Σλφ(0) = kλφ(0).
  const double psi = k * lambda_ * phi_zero_;
  const double stop_level = config_.eps_psi * k * phi_zero_;
  if (psi + psi_b_ <= stop_level) {
    ++rebalances_;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kRebalance;
      e.round = rounds_;
      e.lambda = lambda_;
      e.value = psi_b_;
      e.psi = psi + psi_b_;
      trace_->Emit(e);
    }
    for (int i = 0; i < sites_k_; ++i) {
      if (in_round_[static_cast<size_t>(i)] == 0) continue;
      const LambdaMsg delivered =
          transport_->ShipLambda(i, LambdaMsg{lambda_});
      sites_[static_cast<size_t>(i)].SetLambda(delivered.lambda);
    }
    StartSubround(psi + psi_b_);
  } else {
    EndRound(/*already_flushed=*/true);
  }
}

void FgmProtocol::EndRound(bool already_flushed) {
  if (!already_flushed) FlushAllSites();

  // Derive the FGM/O rate estimates from this round's observations.
  if (config_.optimizer) {
    std::vector<double> phi_end(static_cast<size_t>(sites_k_));
    std::vector<double> drift_norm(static_cast<size_t>(sites_k_));
    std::vector<int64_t> site_updates(static_cast<size_t>(sites_k_));
    int64_t tau = 0;
    // The cheap bound is b(x) = L‖x‖ + φ(0) (Eq. 17 with the Lipschitz
    // factor made explicit), so its growth rate scales with L.
    const double lipschitz = cheap_fn_->LipschitzBound();
    for (int i = 0; i < sites_k_; ++i) {
      const RealVector& x = round_drift_[static_cast<size_t>(i)];
      phi_end[static_cast<size_t>(i)] = safe_fn_->Eval(x);
      drift_norm[static_cast<size_t>(i)] = lipschitz * x.Norm();
      site_updates[static_cast<size_t>(i)] =
          sites_[static_cast<size_t>(i)].updates_in_round();
      tau += site_updates[static_cast<size_t>(i)];
    }
    if (tau > 0) {
      if (have_rates_) {
        older_rates_ = std::move(prev_rates_);
        have_older_rates_ = true;
      }
      prev_rates_ =
          EstimateSiteRates(phi_zero_, phi_end, drift_norm, site_updates);
      have_rates_ = true;
      if (health_ != nullptr) {
        for (int i = 0; i < sites_k_; ++i) {
          const SiteRates& r = prev_rates_[static_cast<size_t>(i)];
          if (r.active) health_->ObserveRates(i, r.alpha, r.beta, r.gamma);
        }
      }
    }
  }

  // E absorbs the total drift of the round: E += B/k.
  estimate_.Axpy(1.0 / static_cast<double>(sites_k_), balance_);
  StartRound();
}

bool FgmProtocol::BoundsCertified() const {
  if (counter_total_ > live_k_) return false;
  if (sim_ == nullptr) return true;
  // Under a simulated network the subround invariant c ≤ k only covers
  // the increments the coordinator has SEEN. Certify exactly the instants
  // where the full-k round is intact and no counter weight is pending
  // (in flight or dropped): every site-local increment then took effect
  // at the coordinator, so the synchronous argument applies verbatim.
  if (paused_ || live_k_ != sites_k_) return false;
  return PendingCounterWeight() == 0;
}

int64_t FgmProtocol::PendingCounterWeight() const {
  int64_t pending = 0;
  for (int i = 0; i < sites_k_; ++i) {
    if (in_round_[static_cast<size_t>(i)] == 0) continue;
    const int64_t delta = sites_[static_cast<size_t>(i)].counter() -
                          coord_seen_ci_[static_cast<size_t>(i)];
    if (delta > 0) pending += delta;
  }
  return pending;
}

void FgmProtocol::Finish() {
  if (sim_ == nullptr) return;
  sim_->FinishRun();
  DrainNetwork();
}

void FgmProtocol::SimTick() {
  sim_->Advance(1);
  DrainNetwork();
}

void FgmProtocol::DrainNetwork() {
  sim::FaultNotice fault;
  while (sim_->PopFault(&fault)) HandleFault(fault);
  if (paused_) CheckDeadlines();
  sim::CounterDelivery delivery;
  while (sim_->PopCounter(&delivery)) {
    HandleCounterDelivery(delivery);
    // Poll inside the drain loop: once a poll advances the subround, the
    // remaining queued datagrams carry a stale epoch and are discarded.
    if (!paused_ && counter_total_ > live_k_) PollAndAdvance();
  }
  MaybeSilencePoll();
}

void FgmProtocol::HandleFault(const sim::FaultNotice& fault) {
  const size_t s = static_cast<size_t>(fault.site);
  if (!fault.up) {
    site_ok_[s] = 0;
    down_since_[s] = sim_->now();
    if (health_ != nullptr) {
      health_->NoteSiteDown(fault.site, rounds_, sim_->now());
    }
    // A down round member pauses subround progress (polls would FGM_CHECK
    // addressing a dead link); counters from live members keep
    // accumulating and the subround resumes at resync.
    if (in_round_[s] != 0) paused_ = true;
    return;
  }
  site_ok_[s] = 1;
  if (health_ != nullptr) {
    health_->NoteSiteUp(fault.site, rounds_, sim_->now());
  }
  if (in_round_[s] != 0) {
    ResyncSite(fault.site);
    if (!AnyInRoundSiteDown()) {
      paused_ = false;
      // The interrupted subround cannot be resumed — the rejoined site's
      // subround baseline z_i was volatile. Poll everyone and start a
      // fresh (labelled) subround from the authoritative ψ.
      PollAndAdvance("resync");
    }
  } else {
    RejoinReconfigure(fault.site);
  }
}

bool FgmProtocol::AnyInRoundSiteDown() const {
  for (int i = 0; i < sites_k_; ++i) {
    if (in_round_[static_cast<size_t>(i)] != 0 &&
        site_ok_[static_cast<size_t>(i)] == 0) {
      return true;
    }
  }
  return false;
}

void FgmProtocol::ResyncSite(int site) {
  ResyncMsg msg;
  msg.reference = estimate_;
  msg.theta = last_theta_;
  msg.lambda = lambda_;
  msg.round = rounds_;
  msg.subround = subrounds_this_round_;
  sim_->NoteResync();
  int64_t resync_span = 0;
  if (spans_ != nullptr) {
    // Parented to the run: the handshake interrupts whatever subround is
    // open rather than nesting inside it.
    resync_span = spans_->BeginWithParent(SpanKind::kResync, site, rounds_,
                                          subrounds_this_round_, "rejoin",
                                          spans_->root());
  }
  if (trace_ != nullptr) {
    // Emitted before the handshake ships: the site is up again from here
    // on, and the replay checker clears its down state at this event.
    TraceEvent e;
    e.kind = TraceEventKind::kSiteResync;
    e.site = site;
    e.round = rounds_;
    e.words = msg.Words();
    e.t = sim_->now();
    e.reason = "rejoin";
    trace_->Emit(e);
  }
  const ResyncMsg delivered = transport_->ShipResync(site, msg);
  // Recovery always ships the full reference and the site rebuilds φ from
  // it, even when its round plan was the cheap bound. Sound: b ≥ φ
  // pointwise, so replacing one summand of the monitored Σf_i (f_i ∈
  // {φ, b}) by φ keeps Σf_i ≥ Σφ — the threshold test stays conservative.
  sites_[static_cast<size_t>(site)].ResyncRound(
      safe_fn_.get(), delivered.lambda, delivered.theta);
  plan_[static_cast<size_t>(site)] = 1;
  // The site's per-subround counter restarted from zero; re-baseline.
  // Pre-crash datagrams still in flight for this epoch then re-apply as
  // fresh deltas — that only inflates c (an earlier poll), never misses.
  coord_seen_ci_[static_cast<size_t>(site)] = 0;
  if (spans_ != nullptr) spans_->End(resync_span);
}

void FgmProtocol::RejoinReconfigure(int site) {
  // The returning site is not a round member (it was dropped by the
  // deadline). Pull its surviving drift into the balance vector before
  // the reconfiguring round resets its evaluator, then end the reduced
  // round — the next StartRound re-admits every up site.
  sim_->NoteResync();
  int64_t resync_span = 0;
  if (spans_ != nullptr) {
    resync_span = spans_->BeginWithParent(SpanKind::kResync, site, rounds_,
                                          subrounds_this_round_, "reconfig",
                                          spans_->root());
  }
  if (trace_ != nullptr) {
    // Emitted before the flush exchange: the site is up again from here
    // on, and the replay checker clears its down state at this event.
    TraceEvent e;
    e.kind = TraceEventKind::kSiteResync;
    e.site = site;
    e.round = rounds_;
    e.words = 0;
    e.t = sim_->now();
    e.reason = "reconfig";
    trace_->Emit(e);
  }
  FgmSite& s = sites_[static_cast<size_t>(site)];
  transport_->ShipControl(site, ControlMsg{ControlOp::kFlushRequest});
  const DriftFlushMsg delivered =
      transport_->SendDriftFlush(site, s.MakeFlushMsg());
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kDriftFlush;
    e.round = rounds_;
    e.site = site;
    e.words = delivered.Words();
    e.count = delivered.update_count;
    trace_->Emit(e);
  }
  if (delivered.update_count > 0) {
    const RealVector& drift =
        DeliveredDrift(delivered, *query_, site, &flush_scratch_);
    balance_ += drift;
    s.FlushReset();
  }
  CloseSubroundForced("reconfig");
  EndRound(/*already_flushed=*/false);
  if (spans_ != nullptr) spans_->End(resync_span);
}

void FgmProtocol::CloseSubroundForced(const char* reason) {
  // A forced round end (deadline / reconfiguration) abandons the open
  // subround without a φ-value poll; the trace still needs a labelled
  // kSubroundEnd so the replay checker sees the subround closed.
  if (spans_ != nullptr && subround_span_ != 0) {
    // Before the trace_ gate: the span must close even when tracing is
    // off, or a forced round end leaks an open subround span.
    spans_->End(subround_span_, reason);
    subround_span_ = 0;
  }
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.kind = TraceEventKind::kSubroundEnd;
  e.round = rounds_;
  e.subround = subrounds_this_round_;
  e.psi = last_psi_;
  e.counter = counter_total_;
  e.reason = reason;
  trace_->Emit(e);
}

void FgmProtocol::HandleCounterDelivery(const sim::CounterDelivery& delivery) {
  if (delivery.round != rounds_ ||
      delivery.subround != subrounds_this_round_) {
    sim_->NoteStale();
    return;
  }
  ApplyCounterDelta(delivery.site, delivery.msg.increment, nullptr);
}

void FgmProtocol::ApplyCounterDelta(int site, int64_t cumulative,
                                    const char* reason) {
  const size_t s = static_cast<size_t>(site);
  const int64_t delta = cumulative - coord_seen_ci_[s];
  if (delta <= 0) return;  // reordered duplicate of an older cumulative
  coord_seen_ci_[s] = cumulative;
  counter_total_ += delta;
  last_counter_activity_ = sim_->now();
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kIncrementMsg;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.site = site;
    e.counter = delta;
    e.reason = reason;
    trace_->Emit(e);
  }
}

void FgmProtocol::MaybeSilencePoll() {
  if (!lossy_net_ || paused_) return;
  if (sim_->now() - last_counter_activity_ < config_.net.silence_timeout) {
    return;
  }
  // The subround may be stalled on dropped datagrams from sites that have
  // since gone quiet: re-poll every member's cumulative counter (request
  // + one-word reply, charged and retransmitted like any control RPC).
  sim_->NoteTimeout();
  last_counter_activity_ = sim_->now();
  for (int i = 0; i < sites_k_; ++i) {
    const size_t s = static_cast<size_t>(i);
    if (in_round_[s] == 0 || site_ok_[s] == 0) continue;
    transport_->ShipControl(i, ControlMsg{ControlOp::kPollCounter});
    const CounterMsg reply =
        transport_->SendCounter(i, CounterMsg{sites_[s].counter()});
    ApplyCounterDelta(i, reply.increment, "timeout-poll");
  }
  if (counter_total_ > live_k_) PollAndAdvance();
}

void FgmProtocol::CheckDeadlines() {
  bool expired = false;
  for (int i = 0; i < sites_k_; ++i) {
    const size_t s = static_cast<size_t>(i);
    if (in_round_[s] != 0 && site_ok_[s] == 0 &&
        sim_->now() - down_since_[s] >= config_.net.dead_deadline) {
      expired = true;
      break;
    }
  }
  if (!expired) return;
  // Graceful degradation: a member stayed dead past the deadline. End the
  // round without it — FlushAllSites skips down sites (their un-flushed
  // drift survives locally and folds in at rejoin) and StartRound
  // reconstitutes the round over the surviving sites (reduced k).
  CloseSubroundForced("deadline");
  EndRound(/*already_flushed=*/false);
}

int64_t FgmProtocol::SubroundWords() const {
  const TrafficStats& t = transport_->stats();
  // Quantum broadcast (k), φ-value replies (k) and counter increments
  // (≤ k+1) — the paper's 3k+1 words per subround. Poll/flush requests
  // are charged as kControl and excluded here.
  return t.words_by_kind[static_cast<size_t>(MsgKind::kQuantum)] +
         t.words_by_kind[static_cast<size_t>(MsgKind::kCounter)] +
         t.words_by_kind[static_cast<size_t>(MsgKind::kPhiValue)];
}

double FgmProtocol::mean_full_function_fraction() const {
  if (total_function_ships_ == 0) return 0.0;
  return static_cast<double>(full_function_ships_) /
         static_cast<double>(total_function_ships_);
}

}  // namespace fgm
