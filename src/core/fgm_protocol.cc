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

FgmProtocol::FgmProtocol(const ContinuousQuery* query, int num_sites,
                         FgmConfig config)
    : FgmProtocol(query, hier::TreeTopology::Flat(num_sites), config) {}

FgmProtocol::FgmProtocol(const ContinuousQuery* query,
                         const hier::TreeTopology& topo, FgmConfig config)
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
  FGM_CHECK_GE(k_leaves_, 1);
  FGM_CHECK_GT(config_.eps_psi, 0.0);
  FGM_CHECK_LT(config_.eps_psi, 1.0);
  FGM_CHECK_GE(config_.max_subrounds_per_round, 1);

  // An enabled net-sim config swaps the root tier's synchronous transport
  // for the discrete-event network; everything downstream only sees
  // Transport. Only the root tier runs over it: the fault plan's indices
  // address root children, and the root links are the bottleneck whose
  // latency/loss behaviour the simulation studies.
  transports_.reserve(static_cast<size_t>(depth_));
  transports_.push_back(
      sim::MakeTransport(config_.transport, m_, config_.net, &sim_));
  for (int t = 1; t < depth_; ++t) {
    transports_.push_back(
        std::make_unique<Transport>(topo_.NodesAt(t + 1), config_.transport));
    // Tier 0 keeps the default stamp (0) so root-tier traces stay in the
    // flat schema; lower tiers stamp every event/span they emit.
    transports_.back()->set_tier(t);
  }
  if (sim_ != nullptr) lossy_net_ = config_.net.lossy();

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
  for (int j = 0; j < m_; ++j) {
    leaves1_[static_cast<size_t>(j)] = topo_.LeavesUnder(1, j);
  }

  round_drift_.reserve(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) round_drift_.emplace_back(query->dimension());
  round_drift_norm_.assign(static_cast<size_t>(m_), 0.0);
  touched_scratch_ = RealVector(query->dimension());
  subtree_updates_.assign(static_cast<size_t>(m_), 0);
  plan_.assign(static_cast<size_t>(m_), 1);
  child_ok_.assign(static_cast<size_t>(m_), 1);
  in_round_.assign(static_cast<size_t>(m_), 1);
  down_since_.assign(static_cast<size_t>(m_), 0);
  coord_seen_ci_.assign(static_cast<size_t>(m_), 0);

  // Observability hooks must be live before the first round is traced.
  trace_ = config_.trace;
  timeseries_ = config_.timeseries;
  spans_ = config_.spans;
  health_ = config_.health;
  if (health_ != nullptr && trace_ != nullptr) health_->set_trace(trace_);
  for (auto& transport : transports_) {
    if (trace_ != nullptr) transport->set_trace(trace_);
    if (spans_ != nullptr) transport->set_spans(spans_);
    if (config_.span_wire) transport->set_span_wire(true);
  }
  if (config_.metrics != nullptr) {
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
  cells_.clear();
  {
    ScopedTimer timed(sketch_timer_);
    query_->MapRecord(record, &cells_);
  }
  ProcessRecord(record, cells_);
}

void FgmProtocol::ProcessRecord(const StreamRecord& record,
                                const std::vector<CellUpdate>& cells) {
  if (sim_ != nullptr) SimTick();
  FGM_CHECK(record.site >= 0 && record.site < k_leaves_);
  int64_t increment = 0;
  {
    ScopedTimer timed(safe_fn_timer_);
    increment =
        sites_[static_cast<size_t>(record.site)].ApplyUpdate(record, cells);
  }
  ++total_updates_;
  if (increment <= 0) return;
  if (depth_ == 1) {
    ExportToRoot(record.site, increment);
    return;
  }
  // Walk the leaf's counter increment up to its tier-(D-1) aggregator. A
  // leaf whose root child is outside the round posts nothing — its drift
  // reaches E at the subtree's rejoin flush.
  int anc = record.site;
  for (int t = depth_; t > 1; --t) anc = topo_.Parent(t, anc);
  if (in_round_[static_cast<size_t>(anc)] == 0) return;
  const int parent = topo_.Parent(depth_, record.site);
  const CounterMsg delivered =
      transports_[static_cast<size_t>(depth_ - 1)]->Send(
          record.site, CounterMsg{increment});
  NoteChildUnits(depth_ - 1, parent, delivered.increment);
}

void FgmProtocol::ExportToRoot(int j, int64_t delta) {
  const size_t s = static_cast<size_t>(j);
  if (sim_ != nullptr) {
    // Children post their CUMULATIVE per-subround counter as a one-word
    // fire-and-forget datagram: a lost or reordered datagram is healed by
    // any later one (the coordinator applies positive deltas only). A
    // child outside the round — or down — keeps counting locally but
    // posts nothing; its drift reaches E at the next resync/flush.
    if (child_ok_[s] != 0 && in_round_[s] != 0) {
      sim_->PostCounter(j, CounterMsg{ChildCounter(j)}, rounds_,
                        subrounds_this_round_);
      DrainNetwork();
    }
    return;
  }
  if (in_round_[s] == 0) return;
  // One-word message carrying the increase to c_j.
  const CounterMsg delivered = transports_[0]->Send(j, CounterMsg{delta});
  counter_total_ += delivered.increment;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kIncrementMsg;
    e.round = rounds_;
    e.subround = subrounds_this_round_;
    e.site = j;
    e.counter = delivered.increment;
    trace_->Emit(e);
  }
  if (counter_total_ > live_m_) PollAndAdvance();
}

// ---------------------------------------------------------------------------
// Per-node primitives (a node at tier depth_ is a leaf)

void FgmProtocol::CascadeZone(int tier, int node, bool full) {
  if (tier == depth_) {
    // The leaf reconstructs φ from E (§2.4 step 1), or takes the cheap
    // bound (§4.2.1).
    sites_[static_cast<size_t>(node)].BeginRound(
        full ? static_cast<const SafeFunction*>(safe_fn_.get())
             : cheap_fn_.get());
    return;
  }
  const int begin = topo_.ChildBegin(tier, node);
  const int end = topo_.ChildEnd(tier, node);
  for (int c = begin; c < end; ++c) {
    if (full) {
      transports_[static_cast<size_t>(tier)]->Ship(c, SafeZoneMsg{estimate_});
    } else {
      transports_[static_cast<size_t>(tier)]->Ship(
          c, CheapZoneMsg{cheap_fn_->LipschitzBound(), 1.0,
                          cheap_fn_->AtZero()});
    }
    CascadeZone(tier + 1, c, full);
  }
}

void FgmProtocol::CascadeSubround(int tier, int node, double theta_up,
                                  bool analytic) {
  if (tier == depth_) {
    sites_[static_cast<size_t>(node)].BeginSubround(theta_up);
    return;
  }
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
      transports_[static_cast<size_t>(tier)]->Ship(
          c, ControlMsg{ControlOp::kPollPhi});
      const PhiValueMsg reply =
          transports_[static_cast<size_t>(tier)]->Send(
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
        transports_[static_cast<size_t>(tier)]->Ship(
            c, QuantumMsg{a.theta_local});
    CascadeSubround(tier + 1, c, delivered.theta, analytic);
  }
}

void FgmProtocol::CascadeLambda(int tier, int node, double lambda) {
  if (tier == depth_) {
    sites_[static_cast<size_t>(node)].SetLambda(lambda);
    return;
  }
  const int begin = topo_.ChildBegin(tier, node);
  const int end = topo_.ChildEnd(tier, node);
  for (int c = begin; c < end; ++c) {
    const LambdaMsg delivered =
        transports_[static_cast<size_t>(tier)]->Ship(c, LambdaMsg{lambda});
    CascadeLambda(tier + 1, c, delivered.lambda);
  }
}

double FgmProtocol::ChildValue(int tier, int node) {
  if (tier == depth_) {
    return sites_[static_cast<size_t>(node)].last_value();
  }
  AggNode& a = Agg(tier, node);
  a.last_reported = VHat(a);
  return a.last_reported;
}

DriftFlushMsg FgmProtocol::CollectFlush(int tier, int node) {
  // A leaf ships either the dense drift or the verbatim raw updates,
  // whichever is smaller, plus its update count (§2.1, §4.2.4). The
  // message itself is the single definition of the flush cost; an
  // empty-stream leaf's flush is the 1-word acknowledgement (§5.4).
  if (tier == depth_) return sites_[static_cast<size_t>(node)].MakeFlushMsg();
  const int begin = topo_.ChildBegin(tier, node);
  const int end = topo_.ChildEnd(tier, node);
  RealVector sum(query_->dimension());
  int64_t count = 0;
  for (int c = begin; c < end; ++c) {
    transports_[static_cast<size_t>(tier)]->Ship(
        c, ControlMsg{ControlOp::kFlushRequest});
    const DriftFlushMsg delivered =
        transports_[static_cast<size_t>(tier)]->Send(
            c, CollectFlush(tier + 1, c));
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

int64_t FgmProtocol::ChildCounter(int j) const {
  if (depth_ == 1) return sites_[static_cast<size_t>(j)].counter();
  return aggs_[1][static_cast<size_t>(j)].sent_up;
}

int64_t FgmProtocol::ChildUpdatesInRound(int j) const {
  if (depth_ == 1) return sites_[static_cast<size_t>(j)].updates_in_round();
  return subtree_updates_[static_cast<size_t>(j)];
}

void FgmProtocol::ResyncChild(int j, const ResyncMsg& delivered) {
  if (depth_ == 1) {
    // Recovery always ships the full reference and the leaf rebuilds φ
    // from it, even when its round plan was the cheap bound. Sound: b ≥ φ
    // pointwise, so replacing one summand of the monitored Σf_i (f_i ∈
    // {φ, b}) by φ keeps Σf_i ≥ Σφ — the threshold test stays
    // conservative.
    sites_[static_cast<size_t>(j)].ResyncRound(
        safe_fn_.get(), delivered.lambda, delivered.theta);
    plan_[static_cast<size_t>(j)] = 1;
    return;
  }
  // The subtree IS the aggregator's stable storage: its leaves kept their
  // evaluators and drift, and no subround advanced while the round was
  // paused, so θ is unchanged and nothing below the aggregator needs
  // re-shipping. Re-baseline the export edge on the current conservative
  // bound; the "resync"-labelled poll that follows (once every member is
  // up) re-baselines the whole tree.
  AggNode& a = Agg(1, j);
  a.theta_up = delivered.theta;
  a.z_up = VHat(a);
  a.sent_up = 0;
  a.last_reported = a.z_up;
}

// ---------------------------------------------------------------------------
// Aggregator machinery (tiers 1 .. depth_-1)

void FgmProtocol::RebaselineChild(int tier, int node, double theta) {
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

void FgmProtocol::LocalPoll(int tier, int node) {
  AggNode& a = Agg(tier, node);
  ++local_polls_;
  const int64_t counter_before = a.counter_local;
  double z = 0.0;
  for (int c = a.child_begin; c < a.child_end; ++c) {
    transports_[static_cast<size_t>(tier)]->Ship(
        c, ControlMsg{ControlOp::kPollPhi});
    const PhiValueMsg reply =
        transports_[static_cast<size_t>(tier)]->Send(
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
        transports_[static_cast<size_t>(tier)]->Ship(
            c, QuantumMsg{a.theta_local});
    RebaselineChild(tier + 1, c, delivered.theta);
  }
}

void FgmProtocol::NoteChildUnits(int tier, int node, int64_t units) {
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

void FgmProtocol::ExportUp(int tier, int node) {
  AggNode& a = Agg(tier, node);
  FGM_CHECK_GT(a.theta_up, 0.0);
  const double vhat = VHat(a);
  const int64_t u =
      static_cast<int64_t>(std::floor((vhat - a.z_up) / a.theta_up));
  if (u <= a.sent_up) return;  // exports are max-monotone
  const int64_t delta = u - a.sent_up;
  a.sent_up = u;
  if (tier == 1) {
    ExportToRoot(node, delta);
    return;
  }
  const CounterMsg delivered =
      transports_[static_cast<size_t>(tier - 1)]->Send(
          node, CounterMsg{delta});
  NoteChildUnits(tier - 1, topo_.Parent(tier, node), delivered.increment);
}

void FgmProtocol::EmitTierEnds() {
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
// Root coordinator (over the m root children)

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
  // (feedback guard input), then snapshot for the new round. ROOT-tier
  // words: the root link is the bottleneck the plan optimizes.
  const TrafficStats& root_stats = transports_[0]->stats();
  if (rounds_ > 0 && config_.optimizer) {
    const int64_t words = root_stats.total_words() - round_start_words_;
    const int64_t updates = total_updates_ - round_start_updates_;
    if (updates > 0) {
      int64_t full_count = 0;
      for (uint8_t d : plan_) full_count += d;
      // Class 1 = "has cheap children": even a few cheap bounds can poison
      // a round with variability-driven subround churn.
      const size_t cls = (full_count < m_) ? 1 : 0;
      const double rate =
          static_cast<double>(words) / static_cast<double>(updates);
      class_cost_ewma_[cls] = class_cost_count_[cls] == 0
                                  ? rate
                                  : 0.7 * class_cost_ewma_[cls] + 0.3 * rate;
      ++class_cost_count_[cls];
    }
  }
  round_start_words_ = root_stats.total_words();
  round_start_words_by_kind_ = root_stats.words_by_kind;
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

  // Round membership: every root child whose link is up joins (with its
  // whole subtree). A child dropped by the dead-child deadline keeps
  // accumulating drift locally and is re-admitted (after a flush) by the
  // first StartRound following its rejoin. In synchronous mode every
  // child is always a member.
  if (sim_ != nullptr) {
    live_m_ = 0;
    for (int j = 0; j < m_; ++j) {
      in_round_[static_cast<size_t>(j)] = child_ok_[static_cast<size_t>(j)];
      live_m_ += child_ok_[static_cast<size_t>(j)] != 0 ? 1 : 0;
    }
    FGM_CHECK_GE(live_m_, 1);  // the fault plan killed every child
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
  // A leaf that is cut off right now keeps accumulating drift through an
  // evaluator built against the OUTGOING round's safe function, and only
  // rebuilds it at resync. Keep retired safe functions alive until a
  // round starts with every child up (when no evaluator can reference
  // them any longer). The cheap bound needs the same treatment: a leaf
  // that crashed on a d = 0 plan evaluates the outgoing round's b(x)
  // until its resync rebuilds φ.
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
  // k·φ(0)' = live_leaves·φ(0) is the true initial ψ. On the flat star
  // leaves = children and φ(0) is used verbatim: (k·p)/k is not bit-equal
  // to p for every double.
  phi0_prime_ = depth_ == 1 ? phi_zero_
                            : static_cast<double>(live_leaves_) * phi_zero_ /
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

  // FGM/O: choose the per-child plan from the previous round's rates. The
  // fixed per-round overhead covers the expected subround traffic
  // ((3k+1) words per subround, ~log2(1/ε_ψ) subrounds) plus the
  // end-of-round poll and flush acknowledgements, with k = m (the root
  // link's fan-in).
  const std::vector<SiteRates>* rates_used = nullptr;
  // A reduced-k round (a child dead past the deadline) ships full zones to
  // the survivors: the optimizer's cost model prices a full-k round.
  if (config_.optimizer && have_rates_ && live_m_ == m_) {
    const double k = static_cast<double>(m_);
    const double overhead =
        (3.0 * k + 1.0) * std::log2(1.0 / config_.eps_psi) + 4.0 * k;
    // Health-aware planning: once the monitor's EWMAs have warmed up,
    // plan from the smoothed per-child rates (a one-round spike no longer
    // flips the plan) and charge each child its expected shipping cost
    // over its live link quality.
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
          r.active = false;  // never reported: excluded, forced d = 0
          continue;
        }
        r.alpha = health_->rate_alpha(j);
        r.beta = health_->rate_beta(j);
        // The EWMA gammas need not sum to 1 (children observe different
        // round subsets); renormalize so the γ_j·τ downstream term keeps
        // its share-of-stream meaning.
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
    // Feedback guard: if mostly-cheap rounds have measurably cost more
    // per update than mostly-full rounds, override a cheap plan (§4.2.5's
    // "fooled optimizer" failure mode). Probe rounds pass unguarded.
    if (config_.optimizer_feedback &&
        rounds_ % config_.feedback_probe_period != 0) {
      int64_t full_count = 0;
      for (uint8_t d : plan_) full_count += d;
      const bool has_cheap = full_count < m_;
      if (has_cheap && class_cost_count_[0] > 0 &&
          class_cost_count_[1] > 0 &&
          class_cost_ewma_[1] >
              config_.feedback_margin * class_cost_ewma_[0]) {
        plan_.assign(static_cast<size_t>(m_), 1);
        ++cheap_overrides_;
        // The executed plan is no longer the one the model priced; its
        // prediction would audit a round that never ran.
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

  // Plan audit: what FGM/O decided and why, before the round's traffic.
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

  // Ship the zones: root → child, then the same zone down the subtree
  // (d_j = 0 puts the 3-word cheap bound on EVERY edge of subtree j — the
  // whole subtree shares the plan).
  for (int j = 0; j < m_; ++j) {
    // FlushChild books drift and updates together, so a child with no
    // booked updates still holds the zero drift of the last reset.
    if (subtree_updates_[static_cast<size_t>(j)] != 0) {
      round_drift_[static_cast<size_t>(j)].SetZero();
    }
    round_drift_norm_[static_cast<size_t>(j)] = 0.0;
    subtree_updates_[static_cast<size_t>(j)] = 0;
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    const bool full = plan_[static_cast<size_t>(j)] != 0;
    if (full) {
      transports_[0]->Ship(j, SafeZoneMsg{estimate_});
      ++full_function_ships_;
    } else {
      transports_[0]->Ship(
          j, CheapZoneMsg{cheap_fn_->LipschitzBound(), 1.0,
                          cheap_fn_->AtZero()});
    }
    CascadeZone(1, j, full);
    ++total_function_ships_;
  }

  balance_.SetZero();
  lambda_ = 1.0;
  psi_b_ = 0.0;

  // Initially ψ = kφ(0) (both φ and b share the value at zero).
  StartSubround(static_cast<double>(live_m_) * phi0_prime_,
                /*analytic=*/true);
}

void FgmProtocol::EmitRoundObservability() {
  if (trace_ == nullptr && timeseries_ == nullptr &&
      plan_gain_abs_err_ == nullptr && health_ == nullptr) {
    return;
  }
  const TrafficStats& t = transports_[0]->stats();
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
  if (timeseries_ == nullptr && health_ == nullptr) return;
  static_assert(kSnapshotMsgKinds == static_cast<int>(MsgKind::kKindCount),
                "RunSnapshot's kind slots must cover every MsgKind");
  // Per-child aggregates: on a deep tree each root child is one "site" of
  // the root star, and its update/drift totals are its subtree's.
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
    const int64_t u = ChildUpdatesInRound(j);
    updates_sum += u;
    s.site_updates_max = std::max(s.site_updates_max, u);
    const double norm = RoundDriftNorm(j);
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
  if (timeseries_ != nullptr) timeseries_->Record(s);
  if (health_ == nullptr) return;
  // This runs before ++rounds_ / membership / φ rebuild, so live_m_ and
  // phi0_prime_ still describe the finished round — exactly the values
  // its stop level was computed from.
  health_->ObserveRound(s);
  for (int j = 0; j < m_; ++j) {
    health_->ObserveSite(j, ChildUpdatesInRound(j), RoundDriftNorm(j));
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
  health_->ObservePsiMargin(
      last_psi_, config_.eps_psi * static_cast<double>(live_m_) * phi0_prime_);
  health_->ObserveOverflowRounds(overflow_rounds_);
  health_->EvaluateAlerts(rounds_, sim_ != nullptr ? sim_->now() : 0);
}

void FgmProtocol::StartSubround(double psi_total, bool analytic) {
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
        transports_[0]->Ship(j, QuantumMsg{quantum});
    CascadeSubround(1, j, delivered.theta, analytic);
    coord_seen_ci_[static_cast<size_t>(j)] = 0;
  }
  if (sim_ != nullptr) last_counter_activity_ = sim_->now();
}

void FgmProtocol::PollAndAdvance(const char* reason) {
  // Collect all m child values: m one-word poll requests + m one-word
  // replies. An aggregator's reply is its conservative bound v̂ ≥
  // Σ λφ(x_i): the root's ψ̂ overestimates the true ψ, so rounds can only
  // end EARLIER than flat — safe, never late.
  double psi = 0.0;
  double delta_psi = 0.0;  // Δψ_n of §2.5.1: Σ_i (sup Φ_i,n - inf Φ_i,n)
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    transports_[0]->Ship(j, ControlMsg{ControlOp::kPollPhi});
    const PhiValueMsg reply =
        transports_[0]->Send(j, PhiValueMsg{ChildValue(1, j)});
    psi += reply.value;
    if (depth_ == 1) {
      delta_psi += sites_[static_cast<size_t>(j)].SubroundValueRange();
    }
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
      config_.eps_psi * static_cast<double>(live_m_) * phi0_prime_;
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
    StartSubround(last_psi_, /*analytic=*/false);
  }
}

double FgmProtocol::RoundDriftNorm(int j) {
  double& norm = round_drift_norm_[static_cast<size_t>(j)];
  if (norm < 0.0) norm = round_drift_[static_cast<size_t>(j)].Norm();
  return norm;
}

bool FgmProtocol::CheapRoundOverBudget() const {
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

namespace {

// Dense-add cells that cost about as much as re-mapping one raw update
// (FlushChild's choice between the two ways of adding a verbatim flush).
constexpr size_t kReprojectCells = 256;

}  // namespace

void FgmProtocol::FlushChild(int j, bool book_round) {
  transports_[0]->Ship(j, ControlMsg{ControlOp::kFlushRequest});
  const DriftFlushMsg delivered =
      transports_[0]->Send(j, CollectFlush(1, j));
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
    RealVector& round_drift = round_drift_[static_cast<size_t>(j)];
    if (book_round) {
      round_drift_norm_[static_cast<size_t>(j)] = -1.0;
      subtree_updates_[static_cast<size_t>(j)] += delivered.update_count;
    }
    // A verbatim flush without a carried drift must be re-projected, and
    // one with only a few raw updates is cheaper to re-project than to
    // add densely (twice over D cells): re-mapping one raw update costs
    // about as much as kReprojectCells cells of those dense adds.
    const bool reproject =
        !delivered.dense &&
        (delivered.drift.dim() == 0 ||
         delivered.raw.size() * kReprojectCells < query_->dimension());
    if (reproject) {
      // Re-project the raw updates and add only the cells they touch.
      // Every other cell of the delivered drift is +0.0, and adding +0.0
      // is the identity here: B and the round drifts start at +0.0, and
      // round-to-nearest addition yields −0.0 only from two −0.0
      // operands, so neither ever holds −0.0. Each touched cell sums the
      // same deltas in the same order as the dense reconstruction, so
      // the result is bit-identical. Clearing the cell after its first
      // visit makes repeated indices add +0.0.
      touched_.clear();
      ReprojectRawUpdates(*query_, j, delivered.raw, &touched_scratch_,
                          &touched_);
      for (size_t i : touched_) {
        const double v = touched_scratch_[i];
        balance_[i] += v;
        if (book_round) round_drift[i] += v;
        touched_scratch_[i] = 0.0;
      }
    } else {
      const RealVector& drift =
          DeliveredDrift(delivered, *query_, j, &flush_scratch_);
      balance_ += drift;
      if (book_round) round_drift += drift;
    }
    if (depth_ == 1) sites_[static_cast<size_t>(j)].FlushReset();
  }
}

void FgmProtocol::FlushAllChildren() {
  for (int j = 0; j < m_; ++j) {
    // Non-members flush at their rejoin reconfiguration instead; a member
    // that is down (deadline-triggered round end) keeps its un-flushed
    // drift locally until it rejoins.
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    if (sim_ != nullptr && child_ok_[static_cast<size_t>(j)] == 0) continue;
    FlushChild(j, /*book_round=*/true);
  }
}

double FgmProtocol::FindMuStar() const {
  // g(µ) = φ(B/(µk)) is monotone along the ray (φ convex, φ(0) < 0):
  // {µ : g(µ) ≤ 0} = [µ*, ∞). Bisection on [lo, 1]. k is the LEAF count:
  // the balance vector is the total drift of live_leaves sites, and λ is
  // shipped to every leaf.
  //
  // B's nonzeros load once into an evaluator; each step then reads the
  // perspective off its per-row primitives in O(d) instead of rescaling
  // and re-evaluating B densely: g(µ) = ValueAtScale(µk)/(µk). The dense
  // ψ_B evaluation in TryRebalance certifies the result.
  if (balance_.Norm() == 0.0) return 0.0;
  const std::unique_ptr<DriftEvaluator> ray = safe_fn_->MakeEvaluator();
  for (size_t i = 0; i < balance_.dim(); ++i) {
    if (balance_[i] != 0.0) ray->ApplyDelta(i, balance_[i]);
  }
  const double k = static_cast<double>(live_leaves_);
  auto g = [&](double mu) { return ray->ValueAtScale(mu * k) / (mu * k); };
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

double FgmProtocol::BalancePsi(double mu) const {
  const double scale = mu * static_cast<double>(live_leaves_);
  RealVector scaled = balance_;
  scaled *= 1.0 / scale;
  return scale * safe_fn_->Eval(scaled);
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
  // overhead; when the next round's zone shipping over the root link is
  // nearly free (e.g. the optimizer chose cheap bounds everywhere),
  // ending the round is cheaper than stretching it.
  double plan_words = 0.0;
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    plan_words += plan_[static_cast<size_t>(j)]
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
  if (plan_words / static_cast<double>(live_m_) < min_words_per_site) {
    EndRound(/*already_flushed=*/false);
    return;
  }
  FlushAllChildren();
  double mu = FindMuStar();
  // ψ_B = µkφ(B/(µk)) ≤ 0 by the bisection's choice of µ, certified by
  // this one dense reference evaluation. The bisection read φ off the
  // ray's per-row primitives, whose rounding differs from the dense path;
  // should the two disagree at the boundary, µ steps to the safe side
  // (g is monotone) until the reference certifies it. Stepping only
  // raises µ, so a λ already below min_lambda skips the check.
  double psi_b = 0.0;
  if (mu > 0.0 && 1.0 - mu >= config_.min_lambda) {
    psi_b = BalancePsi(mu);
    for (double step = mu * 0x1p-40; psi_b > 0.0 && mu < 1.0; step *= 2.0) {
      mu = std::min(1.0, mu + step);
      psi_b = BalancePsi(mu);
    }
  }
  const double lambda = 1.0 - mu;
  if (lambda < config_.min_lambda) {
    EndRound(/*already_flushed=*/true);
    return;
  }
  FGM_CHECK_LE(psi_b, 0.0);
  psi_b_ = psi_b;
  lambda_ = lambda;
  // All drifts are zero after the flush, so the true ψ is
  // live_leaves·λφ(0) = live_m·λ·φ(0)' — the k·λ·φ(0) + ψ_B shape the
  // replay checker re-derives with k = live_m.
  const double k = static_cast<double>(live_m_);
  const double psi = k * lambda_ * phi0_prime_;
  const double stop_level = config_.eps_psi * k * phi0_prime_;
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
          transports_[0]->Ship(j, LambdaMsg{lambda_});
      CascadeLambda(1, j, delivered.lambda);
    }
    StartSubround(psi + psi_b_, /*analytic=*/true);
  } else {
    EndRound(/*already_flushed=*/true);
  }
}

void FgmProtocol::EndRound(bool already_flushed) {
  if (!already_flushed) FlushAllChildren();

  // Derive the FGM/O rate estimates from this round's observations.
  if (config_.optimizer) {
    std::vector<double> phi_end(static_cast<size_t>(m_));
    std::vector<double> drift_norm(static_cast<size_t>(m_));
    std::vector<int64_t> site_updates(static_cast<size_t>(m_));
    int64_t tau = 0;
    // The cheap bound is b(x) = L‖x‖ + φ(0) (Eq. 17 with the Lipschitz
    // factor made explicit), so its growth rate scales with L.
    const double lipschitz = cheap_fn_->LipschitzBound();
    for (int j = 0; j < m_; ++j) {
      const int64_t updates = ChildUpdatesInRound(j);
      site_updates[static_cast<size_t>(j)] = updates;
      tau += updates;
      // A child without updates sits out the estimate (§4.2.4), which
      // never reads its φ or drift norm: skip the two O(D) passes.
      if (updates == 0) continue;
      phi_end[static_cast<size_t>(j)] =
          safe_fn_->Eval(round_drift_[static_cast<size_t>(j)]);
      drift_norm[static_cast<size_t>(j)] = lipschitz * RoundDriftNorm(j);
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

bool FgmProtocol::BoundsCertified() const {
  if (counter_total_ > live_m_) return false;
  if (sim_ == nullptr) return true;
  // Under a simulated network the subround invariant c ≤ k only covers
  // the increments the coordinator has SEEN. Certify exactly the instants
  // where the full-k round is intact and no counter weight is pending
  // (in flight or dropped): every child-local increment then took effect
  // at the coordinator, so the synchronous argument applies verbatim.
  if (paused_ || live_m_ != m_) return false;
  return PendingCounterWeight() == 0;
}

int64_t FgmProtocol::PendingCounterWeight() const {
  int64_t pending = 0;
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] == 0) continue;
    const int64_t delta =
        ChildCounter(j) - coord_seen_ci_[static_cast<size_t>(j)];
    if (delta > 0) pending += delta;
  }
  return pending;
}

void FgmProtocol::Finish() {
  if (sim_ != nullptr) {
    sim_->FinishRun();
    DrainNetwork();
  }
  EmitTierEnds();
}

// ---------------------------------------------------------------------------
// Simulated-network machinery (root children are the fault domain)

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
    if (!paused_ && counter_total_ > live_m_) PollAndAdvance();
  }
  MaybeSilencePoll();
}

void FgmProtocol::HandleFault(const sim::FaultNotice& fault) {
  const size_t s = static_cast<size_t>(fault.site);
  if (!fault.up) {
    child_ok_[s] = 0;
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
  child_ok_[s] = 1;
  if (health_ != nullptr) {
    health_->NoteSiteUp(fault.site, rounds_, sim_->now());
  }
  if (in_round_[s] != 0) {
    ResyncSite(fault.site);
    if (!AnyInRoundChildDown()) {
      paused_ = false;
      // The interrupted subround cannot be resumed — a rejoined leaf's
      // subround baseline z_i was volatile. Poll everyone and start a
      // fresh (labelled) subround from the authoritative ψ.
      PollAndAdvance("resync");
    }
  } else {
    RejoinReconfigure(fault.site);
  }
}

bool FgmProtocol::AnyInRoundChildDown() const {
  for (int j = 0; j < m_; ++j) {
    if (in_round_[static_cast<size_t>(j)] != 0 &&
        child_ok_[static_cast<size_t>(j)] == 0) {
      return true;
    }
  }
  return false;
}

void FgmProtocol::ResyncSite(int j) {
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
    resync_span = spans_->BeginWithParent(SpanKind::kResync, j, rounds_,
                                          subrounds_this_round_, "rejoin",
                                          spans_->root());
  }
  if (trace_ != nullptr) {
    // Emitted before the handshake ships: the child is up again from here
    // on, and the replay checker clears its down state at this event.
    TraceEvent e;
    e.kind = TraceEventKind::kSiteResync;
    e.site = j;
    e.round = rounds_;
    e.words = msg.Words();
    e.t = sim_->now();
    e.reason = "rejoin";
    trace_->Emit(e);
  }
  ResyncChild(j, transports_[0]->Ship(j, msg));
  // The child's per-subround counter restarted from zero; re-baseline.
  // Pre-crash datagrams still in flight for this epoch then re-apply as
  // fresh deltas — that only inflates c (an earlier poll), never misses.
  coord_seen_ci_[static_cast<size_t>(j)] = 0;
  if (spans_ != nullptr) spans_->End(resync_span);
}

void FgmProtocol::RejoinReconfigure(int j) {
  // The returning child is not a round member (it was dropped by the
  // deadline). Pull its surviving drift into the balance vector before
  // the reconfiguring round resets its evaluators, then end the reduced
  // round — the next StartRound re-admits every up child.
  sim_->NoteResync();
  int64_t resync_span = 0;
  if (spans_ != nullptr) {
    resync_span = spans_->BeginWithParent(SpanKind::kResync, j, rounds_,
                                          subrounds_this_round_, "reconfig",
                                          spans_->root());
  }
  if (trace_ != nullptr) {
    // Emitted before the flush exchange: the child is up again from here
    // on, and the replay checker clears its down state at this event.
    TraceEvent e;
    e.kind = TraceEventKind::kSiteResync;
    e.site = j;
    e.round = rounds_;
    e.words = 0;
    e.t = sim_->now();
    e.reason = "reconfig";
    trace_->Emit(e);
  }
  FlushChild(j, /*book_round=*/false);
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

void FgmProtocol::ApplyCounterDelta(int j, int64_t cumulative,
                                    const char* reason) {
  const size_t s = static_cast<size_t>(j);
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
    e.site = j;
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
  // The subround may be stalled on dropped datagrams from children that
  // have since gone quiet: re-poll every member's cumulative counter
  // (request + one-word reply, charged and retransmitted like any control
  // RPC).
  sim_->NoteTimeout();
  last_counter_activity_ = sim_->now();
  for (int j = 0; j < m_; ++j) {
    const size_t s = static_cast<size_t>(j);
    if (in_round_[s] == 0 || child_ok_[s] == 0) continue;
    transports_[0]->Ship(j, ControlMsg{ControlOp::kPollCounter});
    const CounterMsg reply =
        transports_[0]->Send(j, CounterMsg{ChildCounter(j)});
    ApplyCounterDelta(j, reply.increment, "timeout-poll");
  }
  if (counter_total_ > live_m_) PollAndAdvance();
}

void FgmProtocol::CheckDeadlines() {
  bool expired = false;
  for (int j = 0; j < m_; ++j) {
    const size_t s = static_cast<size_t>(j);
    if (in_round_[s] != 0 && child_ok_[s] == 0 &&
        sim_->now() - down_since_[s] >= config_.net.dead_deadline) {
      expired = true;
      break;
    }
  }
  if (!expired) return;
  // Graceful degradation: a member stayed dead past the deadline. End the
  // round without it — FlushAllChildren skips down children (their
  // un-flushed drift survives locally and folds in at rejoin) and
  // StartRound reconstitutes the round over the survivors (reduced k).
  CloseSubroundForced("deadline");
  EndRound(/*already_flushed=*/false);
}

int64_t FgmProtocol::SubroundWords() const {
  const TrafficStats& t = transports_[0]->stats();
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
