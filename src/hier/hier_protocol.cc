#include "hier/hier_protocol.h"

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

std::unique_ptr<Transport> MakeTierTransport(const FgmConfig& config, int tier,
                                             int endpoints) {
  // Only the root tier runs over the discrete-event network: the fault
  // plan's indices address tier-1 aggregators, and the root links are the
  // bottleneck whose latency/loss behaviour the simulation studies.
  if (tier == 0 && config.net.enabled()) {
    return std::make_unique<sim::EventNetwork>(endpoints, config.net);
  }
  return MakeTransport(config.transport, endpoints);
}

}  // namespace

HierFgmProtocol::HierFgmProtocol(const ContinuousQuery* query,
                                 const hier::TreeTopology& topo,
                                 FgmConfig config)
    : query_(query),
      topo_(topo),
      depth_(topo.depth()),
      m_(topo.NodesAt(1)),
      k_leaves_(topo.leaves()),
      config_(config),
      live_m_(topo.NodesAt(1)),
      live_leaves_(topo.leaves()),
      estimate_(query->dimension()),
      balance_(query->dimension()) {
  FGM_CHECK(query != nullptr);
  // Depth-1 trees ARE the flat star; the runner constructs FgmProtocol
  // for them directly (byte-identical by construction).
  FGM_CHECK_GE(depth_, 2);
  FGM_CHECK_GE(k_leaves_, 1);
  FGM_CHECK_GT(config_.eps_psi, 0.0);
  FGM_CHECK_LT(config_.eps_psi, 1.0);
  FGM_CHECK_GE(config_.max_subrounds_per_round, 1);

  transports_.reserve(static_cast<size_t>(depth_));
  for (int t = 0; t < depth_; ++t) {
    transports_.push_back(
        MakeTierTransport(config_, t, topo_.NodesAt(t + 1)));
    // Tier 0 keeps the default stamp (0) so root-tier traces stay in the
    // flat schema; lower tiers stamp every event/span they emit.
    transports_.back()->network().set_tier(t);
  }
  if (config_.net.enabled()) {
    sim_ = static_cast<sim::EventNetwork*>(transports_[0].get());
    lossy_net_ = config_.net.lossy();
  }

  sites_.reserve(static_cast<size_t>(k_leaves_));
  for (int i = 0; i < k_leaves_; ++i) {
    sites_.emplace_back(i, query->dimension());
  }
  aggs_.resize(static_cast<size_t>(depth_));
  for (int t = 1; t < depth_; ++t) {
    aggs_[static_cast<size_t>(t)].resize(
        static_cast<size_t>(topo_.NodesAt(t)));
    for (int j = 0; j < topo_.NodesAt(t); ++j) {
      AggNode& a = Agg(t, j);
      a.child_begin = topo_.ChildBegin(t, j);
      a.child_end = topo_.ChildEnd(t, j);
      a.leaves = topo_.LeavesUnder(t, j);
      FGM_CHECK_GE(a.fan(), 1);
    }
  }
  leaves1_.resize(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) leaves1_[static_cast<size_t>(j)] =
      topo_.LeavesUnder(1, j);

  round_drift_.reserve(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) round_drift_.emplace_back(query->dimension());
  subtree_updates_.assign(static_cast<size_t>(m_), 0);
  plan_.assign(static_cast<size_t>(m_), 1);
  agg_ok_.assign(static_cast<size_t>(m_), 1);
  in_round_.assign(static_cast<size_t>(m_), 1);
  down_since_.assign(static_cast<size_t>(m_), 0);
  coord_seen_ci_.assign(static_cast<size_t>(m_), 0);

  trace_ = config_.trace;
  spans_ = config_.spans;
  health_ = config_.health;
  if (health_ != nullptr && trace_ != nullptr) health_->set_trace(trace_);
  for (auto& transport : transports_) {
    if (trace_ != nullptr) transport->set_trace(trace_);
    if (spans_ != nullptr) transport->set_spans(spans_);
    if (config_.span_wire) transport->set_span_wire(true);
    if (config_.metrics != nullptr) transport->set_metrics(config_.metrics);
  }
  if (config_.metrics != nullptr) {
    sketch_timer_ = config_.metrics->GetTimer("sketch_update");
    safe_fn_timer_ = config_.metrics->GetTimer("safe_fn_eval");
  }
  StartRound();
}

std::string HierFgmProtocol::name() const {
  if (config_.optimizer) return "FGM/O";
  return config_.rebalance ? "FGM" : "FGM-basic";
}

void HierFgmProtocol::ProcessRecord(const StreamRecord& record) {
  if (sim_ != nullptr) SimTick();
  FGM_CHECK(record.site >= 0 && record.site < k_leaves_);
  ++total_updates_;
  FgmSite& site = sites_[static_cast<size_t>(record.site)];
  const int64_t increment =
      site.Process(*query_, record, sketch_timer_, safe_fn_timer_);
  if (increment <= 0) return;
  // Walk the leaf's counter increment up to its tier-(D-1) aggregator. A
  // leaf whose tier-1 ancestor is outside the round posts nothing — its
  // drift reaches E at the subtree's rejoin flush (mirrors the flat
  // protocol's non-member sites).
  int anc = record.site;
  for (int t = depth_; t > 1; --t) anc = topo_.Parent(t, anc);
  if (in_round_[static_cast<size_t>(anc)] == 0) return;
  const int parent = topo_.Parent(depth_, record.site);
  const CounterMsg delivered = transports_[static_cast<size_t>(depth_ - 1)]
                                   ->SendCounter(record.site,
                                                 CounterMsg{increment});
  NoteChildUnits(depth_ - 1, parent, delivered.increment);
}

// ---------------------------------------------------------------------------
// Aggregator machinery (tiers 1 .. depth-1)

double HierFgmProtocol::ChildValue(int tier, int node) {
  if (tier == depth_) {
    return sites_[static_cast<size_t>(node)].last_value();
  }
  AggNode& a = Agg(tier, node);
  a.last_reported = VHat(a);
  return a.last_reported;
}

void HierFgmProtocol::RebaselineChild(int tier, int node, double theta) {
  if (tier == depth_) {
    sites_[static_cast<size_t>(node)].BeginSubround(theta);
    return;
  }
  // The quantum is unchanged (the parent's theta_local only moves through
  // a full CascadeSubround); the child re-anchors its export baseline on
  // the value it just reported — its own children stay untouched, and its
  // v̂ bound keeps holding against the fresh baseline.
  AggNode& a = Agg(tier, node);
  a.theta_up = theta;
  a.z_up = a.last_reported;
  a.sent_up = 0;
}

void HierFgmProtocol::LocalPoll(int tier, int node) {
  AggNode& a = Agg(tier, node);
  ++local_polls_;
  const int64_t counter_before = a.counter_local;
  double z = 0.0;
  for (int c = a.child_begin; c < a.child_end; ++c) {
    transports_[static_cast<size_t>(tier)]->ShipControl(
        c, ControlMsg{ControlOp::kPollPhi});
    const PhiValueMsg reply =
        transports_[static_cast<size_t>(tier)]->SendPhiValue(
            c, PhiValueMsg{ChildValue(tier + 1, c)});
    z += reply.value;
  }
  a.z_local = z;
  a.counter_local = 0;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kSubroundEnd;
    e.tier = tier;
    e.site = node;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.psi = z;
    e.counter = counter_before;
    e.k = a.fan();
    trace_->Emit(e);
  }
  for (int c = a.child_begin; c < a.child_end; ++c) {
    const QuantumMsg delivered =
        transports_[static_cast<size_t>(tier)]->ShipQuantum(
            c, QuantumMsg{a.theta_local});
    RebaselineChild(tier + 1, c, delivered.theta);
  }
}

void HierFgmProtocol::NoteChildUnits(int tier, int node, int64_t units) {
  AggNode& a = Agg(tier, node);
  a.counter_local += units;
  ExportUp(tier, node);
  // The export may have advanced the root subround (full cascade reset);
  // re-read the counter rather than using a stale local.
  if (a.counter_local > a.fan()) {
    LocalPoll(tier, node);
    // The re-baseline can lift v̂ (fresh z_local + full fan slack);
    // re-export so the parent's view stays monotone-current.
    ExportUp(tier, node);
  }
}

void HierFgmProtocol::ExportUp(int tier, int node) {
  AggNode& a = Agg(tier, node);
  FGM_CHECK_GT(a.theta_up, 0.0);
  const double vhat = VHat(a);
  const int64_t u =
      static_cast<int64_t>(std::floor((vhat - a.z_up) / a.theta_up));
  if (u <= a.sent_up) return;  // exports are max-monotone
  const int64_t delta = u - a.sent_up;
  a.sent_up = u;
  if (tier > 1) {
    const CounterMsg delivered =
        transports_[static_cast<size_t>(tier - 1)]->SendCounter(
            node, CounterMsg{delta});
    NoteChildUnits(tier - 1, topo_.Parent(tier, node), delivered.increment);
    return;
  }
  // Tier-1 aggregator → root.
  const size_t s = static_cast<size_t>(node);
  if (sim_ != nullptr) {
    // Cumulative fire-and-forget datagram, exactly like a flat site: a
    // lost or reordered datagram is healed by any later one. A subtree
    // whose up-link is down keeps counting; the next export after its
    // resync carries the (re-baselined) cumulative.
    if (agg_ok_[s] != 0 && in_round_[s] != 0) {
      sim_->PostCounter(node, sim::kParent, CounterMsg{a.sent_up}, rounds_,
                        subrounds_this_round_);
      DrainNetwork();
    }
    return;
  }
  if (in_round_[s] == 0) return;
  if (ApplyRootIncrement(node, delta)) PollAndAdvance();
}

bool HierFgmProtocol::ApplyRootIncrement(int agg, int64_t increment) {
  const CounterMsg delivered =
      transports_[0]->SendCounter(agg, CounterMsg{increment});
  counter_total_ += delivered.increment;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kIncrementMsg;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.site = agg;
    e.counter = delivered.increment;
    trace_->Emit(e);
  }
  return counter_total_ > live_m_;
}

// ---------------------------------------------------------------------------
// Tree cascades

void HierFgmProtocol::CascadeZone(int tier, int node, bool full) {
  const int begin = topo_.ChildBegin(tier, node);
  const int end = topo_.ChildEnd(tier, node);
  for (int c = begin; c < end; ++c) {
    if (full) {
      transports_[static_cast<size_t>(tier)]->ShipSafeZone(
          c, SafeZoneMsg{estimate_});
    } else {
      transports_[static_cast<size_t>(tier)]->ShipCheapZone(
          c, CheapZoneMsg{cheap_fn_->LipschitzBound(), 1.0,
                          cheap_fn_->AtZero()});
    }
    if (tier + 1 == depth_) {
      sites_[static_cast<size_t>(c)].BeginRound(
          full ? static_cast<const SafeFunction*>(safe_fn_.get())
               : cheap_fn_.get());
    } else {
      CascadeZone(tier + 1, c, full);
    }
  }
}

void HierFgmProtocol::CascadeSubround(int tier, int node, double theta_up,
                                      bool analytic) {
  AggNode& a = Agg(tier, node);
  a.theta_up = theta_up;
  a.theta_local = theta_up / (2.0 * static_cast<double>(a.fan()));
  a.counter_local = 0;
  a.sent_up = 0;
  if (analytic) {
    // Round start / post-rebalance: every drift is zero, so every leaf
    // value is λφ(0) and the subtree sums need no polls (b(0) = φ(0), so
    // cheap-bound subtrees share the value).
    a.z_local = lambda_ * phi_zero_ * static_cast<double>(a.leaves);
  } else {
    const int64_t counter_before = a.counter_local;
    double z = 0.0;
    for (int c = a.child_begin; c < a.child_end; ++c) {
      transports_[static_cast<size_t>(tier)]->ShipControl(
          c, ControlMsg{ControlOp::kPollPhi});
      const PhiValueMsg reply =
          transports_[static_cast<size_t>(tier)]->SendPhiValue(
              c, PhiValueMsg{ChildValue(tier + 1, c)});
      z += reply.value;
    }
    a.z_local = z;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kSubroundEnd;
      e.tier = tier;
      e.site = node;
      e.round = rounds_;
      e.subround = subrounds_this_round_;
      e.psi = z;
      e.counter = counter_before;
      e.k = a.fan();
      e.reason = "rebaseline";
      trace_->Emit(e);
    }
  }
  a.z_up = a.z_local;
  a.last_reported = a.z_up;
  for (int c = a.child_begin; c < a.child_end; ++c) {
    const QuantumMsg delivered =
        transports_[static_cast<size_t>(tier)]->ShipQuantum(
            c, QuantumMsg{a.theta_local});
    if (tier + 1 == depth_) {
      sites_[static_cast<size_t>(c)].BeginSubround(delivered.theta);
    } else {
      CascadeSubround(tier + 1, c, delivered.theta, analytic);
    }
  }
}

void HierFgmProtocol::CascadeLambda(int tier, int node, double lambda) {
  const int begin = topo_.ChildBegin(tier, node);
  const int end = topo_.ChildEnd(tier, node);
  for (int c = begin; c < end; ++c) {
    const LambdaMsg delivered =
        transports_[static_cast<size_t>(tier)]->ShipLambda(
            c, LambdaMsg{lambda});
    if (tier + 1 == depth_) {
      sites_[static_cast<size_t>(c)].SetLambda(delivered.lambda);
    } else {
      CascadeLambda(tier + 1, c, delivered.lambda);
    }
  }
}

// ---------------------------------------------------------------------------
// Root coordinator (the flat protocol over m subtree-"sites")

void HierFgmProtocol::StartRound() {
  if (spans_ != nullptr && round_span_ != 0) {
    spans_->End(round_span_);
    round_span_ = 0;
  }
  if (rounds_ > 0) EmitRoundObservability();

  // Feedback-guard bookkeeping over ROOT-tier words: the root link is the
  // bottleneck the plan optimizes, and the replay checker re-sums exactly
  // these words between RoundStart and PlanOutcome.
  if (rounds_ > 0 && config_.optimizer) {
    const int64_t words =
        transports_[0]->stats().total_words() - round_start_words_;
    const int64_t updates = total_updates_ - round_start_updates_;
    if (updates > 0) {
      int64_t full_count = 0;
      for (uint8_t d : plan_) full_count += d;
      const size_t cls = (full_count < m_) ? 1 : 0;
      const double rate =
          static_cast<double>(words) / static_cast<double>(updates);
      class_cost_ewma_[cls] = class_cost_count_[cls] == 0
                                  ? rate
                                  : 0.7 * class_cost_ewma_[cls] + 0.3 * rate;
      ++class_cost_count_[cls];
    }
  }
  round_start_words_ = transports_[0]->stats().total_words();
  round_start_words_by_kind_ = transports_[0]->stats().words_by_kind;
  round_start_updates_ = total_updates_;

  ++rounds_;
  if (spans_ != nullptr) {
    round_span_ = spans_->BeginWithParent(SpanKind::kRound, -1, rounds_, 0,
                                          nullptr, spans_->root());
  }
  if (rounds_ > 1) {
    subround_histogram_.Add(subrounds_this_round_);
  }
  subrounds_this_round_ = 0;

  // Round membership at subtree granularity: every tier-1 aggregator
  // whose up-link is up joins with its whole subtree.
  if (sim_ != nullptr) {
    live_m_ = 0;
    for (int j = 0; j < m_; ++j) {
      in_round_[static_cast<size_t>(j)] = agg_ok_[static_cast<size_t>(j)];
      live_m_ += agg_ok_[static_cast<size_t>(j)] != 0 ? 1 : 0;
    }
    FGM_CHECK_GE(live_m_, 1);  // the fault plan killed every subtree
    paused_ = false;
  }
  live_leaves_ = 0;
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] != 0) {
      live_leaves_ += leaves1_[static_cast<size_t>(j)];
    }
  }

  query_value_ = query_->Evaluate(estimate_);
  thresholds_ = query_->Thresholds(estimate_);
  // Leaves of an out-of-round subtree keep evaluating the outgoing
  // round's functions until the subtree rejoins; keep them alive exactly
  // like the flat protocol keeps functions for down sites.
  if (sim_ != nullptr && safe_fn_ != nullptr) {
    if (live_m_ < m_) {
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
  // The root's trace events carry k = live_m and φ(0)' =
  // live_leaves·φ(0)/live_m, so the flat replay arithmetic certifies the
  // root tier verbatim: k·φ(0)' = live_leaves·φ(0) is the true initial ψ.
  phi0_prime_ = static_cast<double>(live_leaves_) * phi_zero_ /
                static_cast<double>(live_m_);
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kRoundStart;
    e.round = rounds_;
    e.k = live_m_;
    e.psi = static_cast<double>(live_m_) * phi0_prime_;
    e.value = phi0_prime_;
    e.eps = config_.eps_psi;
    trace_->Emit(e);
  }
  cheap_fn_ =
      std::make_unique<CheapBoundFunction>(CheapBoundFunction::For(*safe_fn_));

  // FGM/O at root granularity: one d_j per tier-1 subtree, priced with
  // k = m (the root link's subround overhead is 3m+1 words).
  const std::vector<SiteRates>* rates_used = nullptr;
  if (config_.optimizer && have_rates_ && live_m_ == m_) {
    const double k = static_cast<double>(m_);
    const double overhead =
        (3.0 * k + 1.0) * std::log2(1.0 / config_.eps_psi) + 4.0 * k;
    const bool health_rates = config_.health_planning && health_ != nullptr &&
                              health_->have_rates();
    HealthView health_view;
    const HealthView* view = nullptr;
    if (health_rates) {
      scratch_rates_.assign(static_cast<size_t>(m_), SiteRates{});
      double gamma_sum = 0.0;
      for (int j = 0; j < m_; ++j) {
        if (health_->rate_rounds(j) > 0) gamma_sum += health_->rate_gamma(j);
      }
      for (int j = 0; j < m_; ++j) {
        SiteRates& r = scratch_rates_[static_cast<size_t>(j)];
        if (health_->rate_rounds(j) == 0) {
          r.active = false;
          continue;
        }
        r.alpha = health_->rate_alpha(j);
        r.beta = health_->rate_beta(j);
        r.gamma = gamma_sum > 0.0 ? health_->rate_gamma(j) / gamma_sum : 0.0;
        if (r.alpha <= 0.0) r.alpha = 1e-12;
        if (r.beta < r.alpha) r.beta = r.alpha;
        r.active = r.beta > 0.0;
      }
      health_view.ship_cost.resize(static_cast<size_t>(m_));
      for (int j = 0; j < m_; ++j) {
        health_view.ship_cost[static_cast<size_t>(j)] =
            health_->ShipCostFactor(j);
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
    if (config_.optimizer_feedback &&
        rounds_ % config_.feedback_probe_period != 0) {
      int64_t full_count = 0;
      for (uint8_t d : plan_) full_count += d;
      const bool has_cheap = full_count < m_;
      if (has_cheap && class_cost_count_[0] > 0 && class_cost_count_[1] > 0 &&
          class_cost_ewma_[1] >
              config_.feedback_margin * class_cost_ewma_[0]) {
        plan_.assign(static_cast<size_t>(m_), 1);
        ++cheap_overrides_;
        plan_predicted_ = false;
      }
    }
  } else {
    plan_.assign(static_cast<size_t>(m_), 1);
    plan_predicted_ = false;
  }
  if (!plan_predicted_) {
    plan_pred_len_ = 0.0;
    plan_pred_gain_ = 0.0;
    plan_pred_rate_ = 0.0;
  }

  if (trace_ != nullptr && config_.optimizer) {
    int64_t full_sites = 0;
    for (uint8_t d : plan_) full_sites += d;
    TraceEvent e;
    e.kind = TraceEventKind::kPlanChosen;
    e.round = rounds_;
    e.counter = full_sites;
    e.k = m_;
    e.pred_len = plan_pred_len_;
    e.pred_gain = plan_pred_gain_;
    e.pred_rate = plan_pred_rate_;
    trace_->Emit(e);
    if (rates_used != nullptr) {
      for (int j = 0; j < m_; ++j) {
        const SiteRates& r = (*rates_used)[static_cast<size_t>(j)];
        TraceEvent s;
        s.kind = TraceEventKind::kPlanSite;
        s.round = rounds_;
        s.site = j;
        s.counter = plan_[static_cast<size_t>(j)];
        s.alpha = r.alpha;
        s.beta = r.beta;
        s.gamma = r.gamma;
        trace_->Emit(s);
      }
    }
  }

  // Ship the zones: root → tier-1 aggregator, then the same zone down the
  // subtree (d_j = 0 puts the 3-word cheap bound on EVERY edge of subtree
  // j — the whole subtree shares the plan).
  for (int j = 0; j < m_; ++j) {
    round_drift_[static_cast<size_t>(j)].SetZero();
    subtree_updates_[static_cast<size_t>(j)] = 0;
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    const bool full = plan_[static_cast<size_t>(j)] != 0;
    if (full) {
      transports_[0]->ShipSafeZone(j, SafeZoneMsg{estimate_});
      ++full_function_ships_;
    } else {
      transports_[0]->ShipCheapZone(
          j, CheapZoneMsg{cheap_fn_->LipschitzBound(), 1.0,
                          cheap_fn_->AtZero()});
    }
    CascadeZone(1, j, full);
    ++total_function_ships_;
  }

  balance_.SetZero();
  lambda_ = 1.0;
  psi_b_ = 0.0;

  StartSubround(static_cast<double>(live_m_) * phi0_prime_,
                /*analytic=*/true);
}

void HierFgmProtocol::EmitRoundObservability() {
  if (trace_ == nullptr && health_ == nullptr) return;
  const TrafficStats& t = transports_[0]->stats();
  const int64_t round_words = t.total_words() - round_start_words_;
  const int64_t round_updates = total_updates_ - round_start_updates_;
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
  if (health_ != nullptr) {
    // The health monitor aggregates per-subtree: each tier-1 aggregator
    // is one "site" of the root star, and its update/drift totals are its
    // subtree's.
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
    for (int j = 0; j < m_; ++j) {
      const int64_t u = subtree_updates_[static_cast<size_t>(j)];
      updates_sum += u;
      s.site_updates_max = std::max(s.site_updates_max, u);
      const double norm = round_drift_[static_cast<size_t>(j)].Norm();
      if (norm > s.drift_norm_max) {
        s.drift_norm_max = norm;
        s.hot_site = j;
      }
      s.drift_norm_mean += norm;
    }
    s.site_updates_mean =
        static_cast<double>(updates_sum) / static_cast<double>(m_);
    s.drift_norm_mean /= static_cast<double>(m_);
    if (sim_ != nullptr) {
      const sim::SimNetStats& n = sim_->net_stats();
      s.in_flight_words = n.in_flight_words;
      s.max_in_flight_words = n.max_in_flight_words;
      s.retransmit_words = n.retransmitted_words;
      s.dropped_words = n.dropped_words;
      s.resyncs = n.resyncs;
    }
    health_->ObserveRound(s);
    for (int j = 0; j < m_; ++j) {
      health_->ObserveSite(j, subtree_updates_[static_cast<size_t>(j)],
                           round_drift_[static_cast<size_t>(j)].Norm());
    }
    if (sim_ != nullptr) {
      const std::vector<sim::SiteNetStats>& per_site = sim_->site_stats();
      for (int j = 0; j < m_; ++j) {
        const sim::SiteNetStats& n = per_site[static_cast<size_t>(j)];
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
        health_->ObserveNet(j, sample);
      }
    }
    health_->ObservePsiMargin(last_psi_,
                              config_.eps_psi *
                                  static_cast<double>(live_m_) * phi0_prime_);
    health_->ObserveOverflowRounds(overflow_rounds_);
    health_->EvaluateAlerts(rounds_, sim_ != nullptr ? sim_->now() : 0);
  }
}

void HierFgmProtocol::StartSubround(double psi_total, bool analytic) {
  FGM_CHECK_LT(psi_total, 0.0);
  last_psi_ = psi_total;
  const double quantum = -psi_total / (2.0 * static_cast<double>(live_m_));
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
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    const QuantumMsg delivered =
        transports_[0]->ShipQuantum(j, QuantumMsg{quantum});
    CascadeSubround(1, j, delivered.theta, analytic);
    coord_seen_ci_[static_cast<size_t>(j)] = 0;
  }
  if (sim_ != nullptr) last_counter_activity_ = sim_->now();
}

void HierFgmProtocol::PollAndAdvance(const char* reason) {
  double psi = 0.0;
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    transports_[0]->ShipControl(j, ControlMsg{ControlOp::kPollPhi});
    // A subtree's poll reply is its aggregator's conservative bound v̂ ≥
    // Σ λφ(x_i): the root's ψ̂ overestimates the true ψ, so rounds can
    // only end EARLIER than flat — safe, never late.
    const PhiValueMsg reply =
        transports_[0]->SendPhiValue(j, PhiValueMsg{ChildValue(1, j)});
    psi += reply.value;
  }
  last_psi_ = psi + psi_b_;
  if (spans_ != nullptr && subround_span_ != 0) {
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
  const double stop_level = config_.eps_psi *
                            static_cast<double>(live_m_) * phi0_prime_;
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
    if (config_.rebalance) {
      TryRebalance();
    } else {
      EndRound(/*already_flushed=*/false);
    }
  } else if (CheapRoundOverBudget()) {
    EndRound(/*already_flushed=*/false);
  } else if (subrounds_this_round_ >= config_.max_subrounds_per_round) {
    ++overflow_rounds_;
    EndRound(/*already_flushed=*/false);
  } else {
    StartSubround(last_psi_, /*analytic=*/false);
  }
}

bool HierFgmProtocol::CheapRoundOverBudget() const {
  if (!config_.optimizer || !config_.optimizer_feedback) return false;
  int64_t full_count = 0;
  for (uint8_t d : plan_) full_count += d;
  if (full_count >= m_) return false;
  const double k = static_cast<double>(m_);
  const double full_round_words =
      k * static_cast<double>(query_->dimension()) +
      (3.0 * k + 1.0) * std::log2(1.0 / config_.eps_psi) + 4.0 * k;
  const double spent = static_cast<double>(
      transports_[0]->stats().total_words() - round_start_words_);
  return spent > config_.feedback_budget_factor * full_round_words;
}

DriftFlushMsg HierFgmProtocol::CollectSubtreeFlush(int tier, int node) {
  const int begin = topo_.ChildBegin(tier, node);
  const int end = topo_.ChildEnd(tier, node);
  RealVector sum(query_->dimension());
  int64_t count = 0;
  for (int c = begin; c < end; ++c) {
    transports_[static_cast<size_t>(tier)]->ShipControl(
        c, ControlMsg{ControlOp::kFlushRequest});
    DriftFlushMsg msg = (tier + 1 == depth_)
                            ? sites_[static_cast<size_t>(c)].MakeFlushMsg()
                            : CollectSubtreeFlush(tier + 1, c);
    const DriftFlushMsg delivered =
        transports_[static_cast<size_t>(tier)]->SendDriftFlush(c,
                                                               std::move(msg));
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kDriftFlush;
      e.tier = tier;
      e.round = rounds_;
      e.site = c;
      e.words = delivered.Words();
      e.count = delivered.update_count;
      trace_->Emit(e);
    }
    if (delivered.update_count > 0) {
      const RealVector& drift =
          DeliveredDrift(delivered, *query_, c, &flush_scratch_);
      sum += drift;
      count += delivered.update_count;
      if (tier + 1 == depth_) sites_[static_cast<size_t>(c)].FlushReset();
    }
  }
  // One upward message for the whole subtree: the dense drift sum, or the
  // 1-word acknowledgement when nothing flowed (update_count 0 encodes to
  // the count word alone).
  DriftFlushMsg up;
  up.dense = true;
  up.update_count = count;
  if (count > 0) {
    up.drift = std::move(sum);
  } else {
    up.drift = RealVector(0);
  }
  return up;
}

void HierFgmProtocol::FlushAllSubtrees() {
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    if (sim_ != nullptr && agg_ok_[static_cast<size_t>(j)] == 0) continue;
    transports_[0]->ShipControl(j, ControlMsg{ControlOp::kFlushRequest});
    const DriftFlushMsg delivered =
        transports_[0]->SendDriftFlush(j, CollectSubtreeFlush(1, j));
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kDriftFlush;
      e.round = rounds_;
      e.site = j;
      e.words = delivered.Words();
      e.count = delivered.update_count;
      trace_->Emit(e);
    }
    if (delivered.update_count > 0) {
      const RealVector& drift =
          DeliveredDrift(delivered, *query_, j, &flush_scratch_);
      balance_ += drift;
      round_drift_[static_cast<size_t>(j)] += drift;
      subtree_updates_[static_cast<size_t>(j)] += delivered.update_count;
    }
  }
}

double HierFgmProtocol::FindMuStar() const {
  // Identical to the flat bisection, with the LEAF count as k: the
  // balance vector is the total drift of live_leaves sites, and λ is
  // shipped to every leaf.
  if (balance_.Norm() == 0.0) return 0.0;
  const double k = static_cast<double>(live_leaves_);
  RealVector scaled(balance_.dim());
  auto g = [&](double mu) {
    scaled = balance_;
    scaled *= 1.0 / (mu * k);
    return safe_fn_->Eval(scaled);
  };
  if (g(1.0) >= 0.0) return 1.0;
  double lo = 1e-6, hi = 1.0;
  if (g(lo) < 0.0) return 0.0;
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
  return hi;
}

void HierFgmProtocol::TryRebalance() {
  if (subrounds_this_round_ >= config_.max_subrounds_per_round) {
    ++overflow_rounds_;
    EndRound(/*already_flushed=*/false);
    return;
  }
  // Profitability bar over the ROOT link: rebalancing avoids re-shipping
  // the per-subtree zones from the root.
  double plan_words = 0.0;
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    plan_words += plan_[static_cast<size_t>(j)]
                      ? static_cast<double>(query_->dimension())
                      : CheapBoundFunction::kShippingWords;
  }
  double min_words_per_site = config_.rebalance_min_words_per_site;
  if (config_.health_planning && health_ != nullptr) {
    min_words_per_site *= health_->RebalanceCostFactor();
  }
  if (plan_words / static_cast<double>(live_m_) < min_words_per_site) {
    EndRound(/*already_flushed=*/false);
    return;
  }
  FlushAllSubtrees();
  const double kb = static_cast<double>(live_leaves_);
  const double mu = FindMuStar();
  const double lambda = 1.0 - mu;
  if (lambda < config_.min_lambda) {
    EndRound(/*already_flushed=*/true);
    return;
  }
  if (mu > 0.0) {
    RealVector scaled = balance_;
    scaled *= 1.0 / (mu * kb);
    psi_b_ = mu * kb * safe_fn_->Eval(scaled);
    FGM_CHECK_LE(psi_b_, 0.0);
  } else {
    psi_b_ = 0.0;
  }
  lambda_ = lambda;
  // Post-flush every drift is zero: the true ψ is live_leaves·λφ(0) =
  // live_m·λ·φ(0)' — the same k·λ·φ(0) + ψ_B shape the replay checker
  // re-derives with k = live_m.
  const double psi = static_cast<double>(live_m_) * lambda_ * phi0_prime_;
  const double stop_level = config_.eps_psi *
                            static_cast<double>(live_m_) * phi0_prime_;
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
    for (int j = 0; j < m_; ++j) {
      if (in_round_[static_cast<size_t>(j)] == 0) continue;
      const LambdaMsg delivered =
          transports_[0]->ShipLambda(j, LambdaMsg{lambda_});
      CascadeLambda(1, j, delivered.lambda);
    }
    StartSubround(psi + psi_b_, /*analytic=*/true);
  } else {
    EndRound(/*already_flushed=*/true);
  }
}

void HierFgmProtocol::EndRound(bool already_flushed) {
  if (!already_flushed) FlushAllSubtrees();

  if (config_.optimizer) {
    std::vector<double> phi_end(static_cast<size_t>(m_));
    std::vector<double> drift_norm(static_cast<size_t>(m_));
    std::vector<int64_t> site_updates(static_cast<size_t>(m_));
    int64_t tau = 0;
    const double lipschitz = cheap_fn_->LipschitzBound();
    for (int j = 0; j < m_; ++j) {
      const RealVector& x = round_drift_[static_cast<size_t>(j)];
      phi_end[static_cast<size_t>(j)] = safe_fn_->Eval(x);
      drift_norm[static_cast<size_t>(j)] = lipschitz * x.Norm();
      site_updates[static_cast<size_t>(j)] =
          subtree_updates_[static_cast<size_t>(j)];
      tau += site_updates[static_cast<size_t>(j)];
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
        for (int j = 0; j < m_; ++j) {
          const SiteRates& r = prev_rates_[static_cast<size_t>(j)];
          if (r.active) health_->ObserveRates(j, r.alpha, r.beta, r.gamma);
        }
      }
    }
  }

  // E absorbs the round's total drift per LEAF: E += B/k.
  estimate_.Axpy(1.0 / static_cast<double>(k_leaves_), balance_);
  StartRound();
}

bool HierFgmProtocol::BoundsCertified() const {
  if (counter_total_ > live_m_) return false;
  if (sim_ == nullptr) return true;
  if (paused_ || live_m_ != m_) return false;
  return PendingExportWeight() == 0;
}

int64_t HierFgmProtocol::PendingExportWeight() const {
  int64_t pending = 0;
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    const int64_t delta =
        aggs_[1][static_cast<size_t>(j)].sent_up -
        coord_seen_ci_[static_cast<size_t>(j)];
    if (delta > 0) pending += delta;
  }
  return pending;
}

void HierFgmProtocol::Finish() {
  if (sim_ != nullptr) {
    sim_->FinishRun();
    DrainNetwork();
  }
  EmitTierEnds();
}

void HierFgmProtocol::EmitTierEnds() {
  if (tier_ends_emitted_ || trace_ == nullptr) return;
  tier_ends_emitted_ = true;
  for (int t = 1; t < depth_; ++t) {
    const TrafficStats& s = transports_[static_cast<size_t>(t)]->stats();
    TraceEvent e;
    e.kind = TraceEventKind::kTierEnd;
    e.tier = t;
    e.k = transports_[static_cast<size_t>(t)]->sites();
    e.up_words = s.upstream_words;
    e.down_words = s.downstream_words;
    e.up_msgs = s.upstream_messages;
    e.down_msgs = s.downstream_messages;
    trace_->Emit(e);
  }
}

// ---------------------------------------------------------------------------
// Simulated-network machinery (tier-1 aggregators are the fault domain)

void HierFgmProtocol::SimTick() {
  sim_->Advance(1);
  DrainNetwork();
}

void HierFgmProtocol::DrainNetwork() {
  sim::FaultNotice fault;
  while (sim_->PopFault(&fault)) HandleFault(fault);
  if (paused_) CheckDeadlines();
  sim::CounterDelivery delivery;
  while (sim_->PopCounter(&delivery)) {
    HandleCounterDelivery(delivery);
    if (!paused_ && counter_total_ > live_m_) PollAndAdvance();
  }
  MaybeSilencePoll();
}

void HierFgmProtocol::HandleFault(const sim::FaultNotice& fault) {
  const size_t s = static_cast<size_t>(fault.site);
  if (!fault.up) {
    agg_ok_[s] = 0;
    down_since_[s] = sim_->now();
    if (health_ != nullptr) {
      health_->NoteSiteDown(fault.site, rounds_, sim_->now());
    }
    if (in_round_[s] != 0) paused_ = true;
    return;
  }
  agg_ok_[s] = 1;
  if (health_ != nullptr) {
    health_->NoteSiteUp(fault.site, rounds_, sim_->now());
  }
  if (in_round_[s] != 0) {
    ResyncAggregator(fault.site);
    if (!AnyInRoundAggDown()) {
      paused_ = false;
      PollAndAdvance("resync");
    }
  } else {
    RejoinReconfigure(fault.site);
  }
}

bool HierFgmProtocol::AnyInRoundAggDown() const {
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] != 0 &&
        agg_ok_[static_cast<size_t>(j)] == 0) {
      return true;
    }
  }
  return false;
}

void HierFgmProtocol::ResyncAggregator(int agg) {
  ResyncMsg msg;
  msg.reference = estimate_;
  msg.theta = last_theta_;
  msg.lambda = lambda_;
  msg.round = rounds_;
  msg.subround = subrounds_this_round_;
  sim_->NoteResync();
  int64_t resync_span = 0;
  if (spans_ != nullptr) {
    resync_span = spans_->BeginWithParent(SpanKind::kResync, agg, rounds_,
                                          subrounds_this_round_, "rejoin",
                                          spans_->root());
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kSiteResync;
    e.site = agg;
    e.round = rounds_;
    e.words = msg.Words();
    e.t = sim_->now();
    e.reason = "rejoin";
    trace_->Emit(e);
  }
  const ResyncMsg delivered = transports_[0]->ShipResync(agg, msg);
  // Unlike a flat site, the subtree IS the aggregator's stable storage:
  // its leaves kept their evaluators and drift, and no subround advanced
  // while the round was paused, so θ is unchanged and nothing below the
  // aggregator needs re-shipping. Re-baseline the export edge on the
  // current conservative bound; the "resync"-labelled poll that follows
  // (once every member is up) re-baselines the whole tree.
  AggNode& a = Agg(1, agg);
  a.theta_up = delivered.theta;
  a.z_up = VHat(a);
  a.sent_up = 0;
  a.last_reported = a.z_up;
  coord_seen_ci_[static_cast<size_t>(agg)] = 0;
  if (spans_ != nullptr) spans_->End(resync_span);
}

void HierFgmProtocol::RejoinReconfigure(int agg) {
  sim_->NoteResync();
  int64_t resync_span = 0;
  if (spans_ != nullptr) {
    resync_span = spans_->BeginWithParent(SpanKind::kResync, agg, rounds_,
                                          subrounds_this_round_, "reconfig",
                                          spans_->root());
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kSiteResync;
    e.site = agg;
    e.round = rounds_;
    e.words = 0;
    e.t = sim_->now();
    e.reason = "reconfig";
    trace_->Emit(e);
  }
  // Pull the subtree's surviving drift into the balance vector, then end
  // the reduced round — the next StartRound re-admits every up subtree.
  transports_[0]->ShipControl(agg, ControlMsg{ControlOp::kFlushRequest});
  const DriftFlushMsg delivered =
      transports_[0]->SendDriftFlush(agg, CollectSubtreeFlush(1, agg));
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kDriftFlush;
    e.round = rounds_;
    e.site = agg;
    e.words = delivered.Words();
    e.count = delivered.update_count;
    trace_->Emit(e);
  }
  if (delivered.update_count > 0) {
    const RealVector& drift =
        DeliveredDrift(delivered, *query_, agg, &flush_scratch_);
    balance_ += drift;
  }
  CloseSubroundForced("reconfig");
  EndRound(/*already_flushed=*/false);
  if (spans_ != nullptr) spans_->End(resync_span);
}

void HierFgmProtocol::CloseSubroundForced(const char* reason) {
  if (spans_ != nullptr && subround_span_ != 0) {
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

void HierFgmProtocol::HandleCounterDelivery(
    const sim::CounterDelivery& delivery) {
  if (delivery.round != rounds_ ||
      delivery.subround != subrounds_this_round_) {
    sim_->NoteStale();
    return;
  }
  ApplyCounterDelta(delivery.site, delivery.msg.increment, nullptr);
}

void HierFgmProtocol::ApplyCounterDelta(int agg, int64_t cumulative,
                                        const char* reason) {
  const size_t s = static_cast<size_t>(agg);
  const int64_t delta = cumulative - coord_seen_ci_[s];
  if (delta <= 0) return;
  coord_seen_ci_[s] = cumulative;
  counter_total_ += delta;
  last_counter_activity_ = sim_->now();
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kIncrementMsg;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.site = agg;
    e.counter = delta;
    e.reason = reason;
    trace_->Emit(e);
  }
}

void HierFgmProtocol::MaybeSilencePoll() {
  if (!lossy_net_ || paused_) return;
  if (sim_->now() - last_counter_activity_ < config_.net.silence_timeout) {
    return;
  }
  sim_->NoteTimeout();
  last_counter_activity_ = sim_->now();
  for (int j = 0; j < m_; ++j) {
    const size_t s = static_cast<size_t>(j);
    if (in_round_[s] == 0 || agg_ok_[s] == 0) continue;
    transports_[0]->ShipControl(j, ControlMsg{ControlOp::kPollCounter});
    const CounterMsg reply = transports_[0]->SendCounter(
        j, CounterMsg{aggs_[1][s].sent_up});
    ApplyCounterDelta(j, reply.increment, "timeout-poll");
  }
  if (counter_total_ > live_m_) PollAndAdvance();
}

void HierFgmProtocol::CheckDeadlines() {
  bool expired = false;
  for (int j = 0; j < m_; ++j) {
    const size_t s = static_cast<size_t>(j);
    if (in_round_[s] != 0 && agg_ok_[s] == 0 &&
        sim_->now() - down_since_[s] >= config_.net.dead_deadline) {
      expired = true;
      break;
    }
  }
  if (!expired) return;
  // A subtree stayed dead past the deadline: end the round without it
  // (reduced-m graceful degradation; its drift folds in at rejoin).
  CloseSubroundForced("deadline");
  EndRound(/*already_flushed=*/false);
}

double HierFgmProtocol::mean_full_function_fraction() const {
  if (total_function_ships_ == 0) return 0.0;
  return static_cast<double>(full_function_ships_) /
         static_cast<double>(total_function_ships_);
}

}  // namespace fgm
