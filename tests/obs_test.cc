// Observability layer: trace-sink event ordering under a real multi-round
// FGM run, the metrics registry and its JSON export, and the JSONL event
// schema (golden lines + parse round-trip).

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/replay.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "query/query.h"
#include "sketch/fast_agms.h"
#include "stream/record.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

TEST(TraceSink, FgmRunEventOrdering) {
  auto proj = std::make_shared<const AgmsProjection>(5, 100, 42);
  SelfJoinQuery query(proj, 0.1);
  MemoryTraceSink sink;
  FgmConfig config;
  config.trace = &sink;
  const int k = 4;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(11);
  StreamRecord rec;
  for (int i = 0; i < 40000; ++i) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(5000);
    protocol.ProcessRecord(rec);
  }
  ASSERT_GT(protocol.rounds(), 1) << "test needs a multi-round run";

  const auto& events = sink.events_log();
  ASSERT_FALSE(events.empty());
  // The sink stamps dense sequence numbers starting at 0.
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].seq, static_cast<int64_t>(i));
  }
  // The protocol opens round 1 at construction, before anything else.
  EXPECT_EQ(events[0].kind, TraceEventKind::kRoundStart);
  EXPECT_EQ(events[0].round, 1);

  int64_t round_starts = 0, subround_starts = 0, rebalances = 0;
  int64_t current_round = 0, current_subround = 0;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kRoundStart:
        ++round_starts;
        EXPECT_EQ(e.round, round_starts) << "rounds numbered consecutively";
        EXPECT_EQ(e.k, k);
        EXPECT_LT(e.value, 0.0) << "phi(0) < 0";
        current_round = e.round;
        current_subround = 0;
        break;
      case TraceEventKind::kSubroundStart:
        ++subround_starts;
        EXPECT_EQ(e.round, current_round) << "subround outside its round";
        EXPECT_EQ(e.subround, current_subround + 1);
        EXPECT_LT(e.psi, 0.0);
        EXPECT_GT(e.theta, 0.0);
        current_subround = e.subround;
        break;
      case TraceEventKind::kIncrementMsg:
        EXPECT_EQ(e.round, current_round);
        EXPECT_EQ(e.subround, current_subround);
        EXPECT_GE(e.site, 0);
        EXPECT_LT(e.site, k);
        EXPECT_GT(e.counter, 0);
        break;
      case TraceEventKind::kRebalance:
        ++rebalances;
        EXPECT_EQ(e.round, current_round);
        EXPECT_GT(e.lambda, 0.0);
        EXPECT_LE(e.lambda, 1.0);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(round_starts, protocol.rounds());
  EXPECT_EQ(subround_starts, protocol.subrounds());
  EXPECT_EQ(rebalances, protocol.rebalances());
  EXPECT_EQ(sink.events(), static_cast<int64_t>(events.size()));
}

TEST(MetricsRegistry, InstrumentsAndPointerStability) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("rounds");
  c->Add(3);
  c->Add();
  EXPECT_EQ(c->value(), 4);
  EXPECT_EQ(registry.GetCounter("rounds"), c) << "same name, same instrument";

  registry.GetGauge("comm_cost")->Set(0.25);
  EXPECT_DOUBLE_EQ(registry.GetGauge("comm_cost")->value(), 0.25);

  RunningStats* s = registry.GetStats("psi");
  s->Add(1.0);
  s->Add(3.0);
  EXPECT_DOUBLE_EQ(s->mean(), 2.0);

  CountHistogram* h = registry.GetHistogram("subrounds_per_round");
  h->Add(7);
  h->Add(7);
  h->Add(9);
  EXPECT_EQ(h->total(), 3);

  WallTimer* t = registry.GetTimer("sketch_update");
  t->AddSeconds(0.5);
  EXPECT_EQ(t->count(), 1);
}

TEST(MetricsRegistry, JsonExportCarriesEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Add(42);
  registry.GetGauge("cost")->Set(0.5);
  registry.GetStats("psi")->Add(2.0);
  registry.GetHistogram("rounds")->Add(3);
  registry.GetTimer("encode")->AddSeconds(1.5);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events\":42"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"cost\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"encode\""), std::string::npos);
}

TEST(ScopedTimer, NullTimerIsANoOp) {
  // Must not crash and must not require a registry.
  ScopedTimer timer(nullptr);
}

// Run maps each event once, outside the protocol, and times that map as
// `sketch_update`: the timer keeps one sample per event, so the sketch share
// of the time split does not silently drop to zero. The site's safe-function
// update stays timed inside the protocol (FGM and GM).
TEST(MetricsRegistry, RunTimesOneSketchUpdatePerEvent) {
  WorldCupConfig trace_config;
  trace_config.sites = 5;
  trace_config.total_updates = 20000;
  trace_config.duration = 10000.0;
  trace_config.distinct_clients = 2000;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(trace_config);
  for (const ProtocolKind kind :
       {ProtocolKind::kFgm, ProtocolKind::kGm, ProtocolKind::kCentral}) {
    MetricsRegistry registry;
    RunConfig config;
    config.protocol = kind;
    config.sites = 5;
    config.width = 60;
    config.window_seconds = 1500.0;
    config.check_every = 1000;
    config.metrics = &registry;
    const RunResult result = ::fgm::Run(config, trace);
    ASSERT_GT(result.events, 20000) << ProtocolKindName(kind);
    EXPECT_EQ(registry.GetTimer("sketch_update")->count(), result.events)
        << ProtocolKindName(kind);
    if (kind != ProtocolKind::kCentral) {
      EXPECT_EQ(registry.GetTimer("safe_fn_eval")->count(), result.events)
          << ProtocolKindName(kind);
    }
  }
}

// Golden JSONL lines: the schema is a contract with the offline checker
// and external tooling; a change here must be deliberate.
TEST(JsonlSchema, GoldenEventLines) {
  TraceEvent e;
  e.kind = TraceEventKind::kRoundStart;
  e.seq = 1;
  e.round = 2;
  e.k = 4;
  e.psi = -4.0;
  e.value = -1.0;
  e.eps = 0.0078125;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"RoundStart\",\"seq\":1,\"round\":2,\"k\":4,"
            "\"psi\":-4,\"phi0\":-1,\"eps_psi\":0.0078125}");

  e = TraceEvent();
  e.kind = TraceEventKind::kSubroundStart;
  e.seq = 2;
  e.round = 2;
  e.subround = 1;
  e.psi = -4.0;
  e.theta = 0.5;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"SubroundStart\",\"seq\":2,\"round\":2,"
            "\"subround\":1,\"psi\":-4,\"theta\":0.5}");

  e = TraceEvent();
  e.kind = TraceEventKind::kMsgSent;
  e.seq = 3;
  e.site = 0;
  e.label = "Quantum";
  e.dir = -1;
  e.words = 3;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"MsgSent\",\"seq\":3,\"site\":0,\"msg\":\"Quantum\","
            "\"dir\":\"down\",\"words\":3}");

  e = TraceEvent();
  e.kind = TraceEventKind::kRunEnd;
  e.seq = 4;
  e.count = 10;
  e.up_words = 100;
  e.down_words = 50;
  e.up_msgs = 7;
  e.down_msgs = 6;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"RunEnd\",\"seq\":4,\"events\":10,\"up_words\":100,"
            "\"down_words\":50,\"up_msgs\":7,\"down_msgs\":6}");
}

// JSON has no inf/nan literal; emitting them raw produces a document no
// parser accepts. The writer serializes every non-finite double as null,
// and the parsers on this side map null numeric fields back to NaN.
TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  EXPECT_EQ(JsonWriter::Number(inf), "null");
  EXPECT_EQ(JsonWriter::Number(-inf), "null");
  EXPECT_EQ(JsonWriter::Number(nan), "null");
  EXPECT_EQ(JsonWriter::Number(1.5), "1.5");

  JsonWriter w;
  w.BeginObject();
  w.Field("x", nan);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"x\":null}");

  // Both parsers read the null back as NaN.
  std::map<std::string, JsonValue> flat;
  std::string error;
  ASSERT_TRUE(ParseFlatJsonObject("{\"x\":null}", &flat, &error)) << error;
  EXPECT_EQ(flat.at("x").type, JsonValue::Type::kNull);

  JsonNode node;
  ASSERT_TRUE(ParseJson("{\"x\":null}", &node, &error)) << error;
  const JsonNode* x = node.Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(std::isnan(x->AsDouble()));
}

// A trace event carrying a non-finite double must still produce a line
// the replay parser accepts (the value comes back as NaN).
TEST(JsonlSchema, NonFiniteEventFieldRoundTripsAsNull) {
  TraceEvent e;
  e.kind = TraceEventKind::kPlanOutcome;
  e.round = 3;
  e.count = 10;
  e.words = 4;
  e.pred_gain = std::numeric_limits<double>::infinity();
  e.actual_gain = 6.0;
  const std::string line = JsonlTraceSink::EventJson(e);
  EXPECT_NE(line.find("\"pred_gain\":null"), std::string::npos) << line;

  TraceEvent parsed;
  std::string error;
  ASSERT_TRUE(ParseTraceEventJson(line, &parsed, &error)) << error;
  EXPECT_TRUE(std::isnan(parsed.pred_gain));
  EXPECT_EQ(parsed.actual_gain, 6.0);
}

TEST(JsonParse, NestedDocuments) {
  const std::string doc =
      "{\"run\":{\"words\":12,\"cost\":0.5},"
      "\"kinds\":[1,2,3],\"name\":\"fgm\",\"flag\":true,"
      "\"nested\":[{\"a\":[]},{}]}";
  JsonNode root;
  std::string error;
  ASSERT_TRUE(ParseJson(doc, &root, &error)) << error;
  ASSERT_EQ(root.type, JsonNode::Type::kObject);
  // Member order is preserved.
  ASSERT_EQ(root.members.size(), 5u);
  EXPECT_EQ(root.members[0].first, "run");
  EXPECT_EQ(root.members[4].first, "nested");

  const JsonNode* run = root.Find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->Find("words")->AsInt(), 12);
  EXPECT_DOUBLE_EQ(run->Find("cost")->AsDouble(), 0.5);

  const JsonNode* kinds = root.Find("kinds");
  ASSERT_NE(kinds, nullptr);
  ASSERT_EQ(kinds->items.size(), 3u);
  EXPECT_EQ(kinds->items[2].AsInt(), 3);

  EXPECT_EQ(root.Find("name")->str, "fgm");
  EXPECT_TRUE(root.Find("flag")->boolean);
  EXPECT_EQ(root.Find("no_such_key"), nullptr);

  // Malformed documents and trailing garbage are rejected.
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &root, &error));
  EXPECT_FALSE(ParseJson("{\"a\":", &root, &error));
  EXPECT_FALSE(ParseJson("[1,2,", &root, &error));
  EXPECT_FALSE(ParseJson("", &root, &error));
}

TEST(TimeSeriesTest, RingBufferDropsOldestAndExportsJson) {
  TimeSeries series(4);
  for (int i = 0; i < 6; ++i) {
    RunSnapshot s;
    s.kind = i % 2 == 0 ? "round" : "interval";
    s.records = 100 * (i + 1);
    s.round = i + 1;
    s.round_words = 10 + i;
    s.words_by_kind[0] = 7;
    series.Record(s);
  }
  EXPECT_EQ(series.samples_taken(), 6);
  EXPECT_EQ(series.samples_dropped(), 2);
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().seq, 2) << "oldest two samples evicted";
  EXPECT_EQ(samples.back().records, 600);

  JsonWriter w;
  series.WriteJson(&w);
  JsonNode root;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &root, &error)) << error;
  ASSERT_NE(root.Find("version"), nullptr);
  EXPECT_EQ(root.Find("version")->AsInt(), kTimeSeriesSchemaVersion);
  EXPECT_EQ(root.Find("taken")->AsInt(), 6);
  EXPECT_EQ(root.Find("dropped")->AsInt(), 2);
  const JsonNode* out = root.Find("samples");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->items.size(), 4u);
  EXPECT_EQ(out->items[0].Find("seq")->AsInt(), 2);
  EXPECT_EQ(out->items[0].Find("kind")->str, "round");
  ASSERT_EQ(out->items[0].Find("words_by_kind")->items.size(),
            static_cast<size_t>(kSnapshotMsgKinds));
  EXPECT_EQ(out->items[0].Find("words_by_kind")->items[0].AsInt(), 7);
}

// FGM protocols feed the time series at round boundaries only; a short
// multi-round run must produce one "round" sample per completed round,
// with per-round word deltas summing to the cumulative count.
TEST(TimeSeriesTest, FgmRunProducesRoundSamples) {
  auto proj = std::make_shared<const AgmsProjection>(5, 100, 42);
  SelfJoinQuery query(proj, 0.1);
  TimeSeries series(1 << 14);
  FgmConfig config;
  config.timeseries = &series;
  const int k = 4;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(11);
  StreamRecord rec;
  for (int i = 0; i < 40000; ++i) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(5000);
    protocol.ProcessRecord(rec);
  }
  ASSERT_GT(protocol.rounds(), 1);
  EXPECT_EQ(series.samples_taken(), protocol.rounds() - 1)
      << "one sample per completed round";
  int64_t delta_sum = 0;
  int64_t prev_total = 0;
  for (const RunSnapshot& s : series.Samples()) {
    EXPECT_STREQ(s.kind, "round");
    // The boundary snapshot reads ψ after the final counter collection has
    // pushed it past the termination threshold, so it may be positive; it
    // must only be finite.
    EXPECT_TRUE(std::isfinite(s.psi));
    EXPECT_GE(s.total_words, prev_total) << "cumulative words are monotone";
    prev_total = s.total_words;
    delta_sum += s.round_words;
    int64_t kind_sum = 0;
    for (const int64_t v : s.round_words_by_kind) kind_sum += v;
    EXPECT_EQ(kind_sum, s.round_words) << "per-kind deltas cover the round";
    EXPECT_GE(s.site_updates_max, 0);
    EXPECT_GE(s.drift_norm_max, 0.0);
  }
  EXPECT_EQ(delta_sum, series.Samples().back().total_words)
      << "round deltas sum to the last cumulative total";
}

// A capacity smaller than the completed-round count forces the ring
// buffer to wrap mid-run: the retained window must be the LAST `capacity`
// round samples, contiguous and still monotone in cumulative words.
TEST(TimeSeriesTest, CapacitySmallerThanRoundCountKeepsTheTail) {
  auto proj = std::make_shared<const AgmsProjection>(5, 100, 42);
  SelfJoinQuery query(proj, 0.1);
  constexpr size_t kCapacity = 8;
  TimeSeries series(kCapacity);
  FgmConfig config;
  config.timeseries = &series;
  const int k = 4;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(11);
  StreamRecord rec;
  for (int i = 0; i < 40000; ++i) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(5000);
    protocol.ProcessRecord(rec);
  }
  ASSERT_GT(protocol.rounds(), static_cast<int64_t>(kCapacity))
      << "the run must complete more rounds than the ring holds";
  EXPECT_EQ(series.samples_taken(), protocol.rounds() - 1);
  EXPECT_EQ(series.samples_dropped(),
            series.samples_taken() - static_cast<int64_t>(kCapacity));
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), kCapacity);
  int64_t prev_seq = samples.front().seq - 1;
  int64_t prev_total = -1;
  for (const RunSnapshot& s : samples) {
    EXPECT_EQ(s.seq, prev_seq + 1) << "retained window is contiguous";
    prev_seq = s.seq;
    EXPECT_GE(s.total_words, prev_total);
    prev_total = s.total_words;
  }
  EXPECT_EQ(samples.back().seq, series.samples_taken() - 1)
      << "the newest sample survives the wrap";
}

// Golden-file regression for the exported time-series document: a
// hand-built series must serialize byte-identically to the committed
// golden. A diff here means the schema changed — update the golden AND
// bump kTimeSeriesSchemaVersion.
TEST(TimeSeriesTest, JsonMatchesGoldenFile) {
  TimeSeries series(4);
  for (int i = 0; i < 3; ++i) {
    RunSnapshot s;
    s.kind = i % 2 == 0 ? "round" : "interval";
    s.records = 100 * (i + 1);
    s.round = i + 1;
    s.subrounds = 2;
    s.total_subrounds = 2 * (i + 1);
    s.psi = -1.5;
    s.theta = 0.25;
    s.lambda = 1.0;
    s.total_words = 40 * (i + 1);
    s.round_words = 40;
    s.words_by_kind[0] = 30;
    s.round_words_by_kind[0] = 30;
    series.Record(s);
  }
  JsonWriter w;
  series.WriteJson(&w);

  const std::string golden_path =
      std::string(FGM_TEST_GOLDEN_DIR) + "/timeseries_v1.json";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(w.str(), want.str())
      << "time-series schema drifted from " << golden_path
      << " — update the golden and bump kTimeSeriesSchemaVersion";
}

// Golden lines for the FGM/O plan-audit events (same contract discipline
// as GoldenEventLines above).
TEST(JsonlSchema, GoldenPlanAuditLines) {
  TraceEvent e;
  e.kind = TraceEventKind::kPlanChosen;
  e.seq = 5;
  e.round = 7;
  e.counter = 3;
  e.k = 4;
  e.pred_len = 2.5;
  e.pred_gain = 10.0;
  e.pred_rate = 4.0;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"PlanChosen\",\"seq\":5,\"round\":7,\"full_sites\":3,"
            "\"k\":4,\"pred_len\":2.5,\"pred_gain\":10,\"pred_rate\":4}");

  e = TraceEvent();
  e.kind = TraceEventKind::kPlanSite;
  e.seq = 6;
  e.round = 7;
  e.site = 2;
  e.counter = 1;
  e.alpha = 0.25;
  e.beta = 0.5;
  e.gamma = 0.75;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"PlanSite\",\"seq\":6,\"round\":7,\"site\":2,\"d\":1,"
            "\"alpha\":0.25,\"beta\":0.5,\"gamma\":0.75}");

  e = TraceEvent();
  e.kind = TraceEventKind::kPlanOutcome;
  e.seq = 8;
  e.round = 7;
  e.count = 100;
  e.words = 40;
  e.pred_gain = 55.0;
  e.actual_gain = 60.0;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"PlanOutcome\",\"seq\":8,\"round\":7,\"updates\":100,"
            "\"words\":40,\"pred_gain\":55,\"actual_gain\":60}");
}

TEST(JsonlSchema, ParseRoundTripsBitExactly) {
  TraceEvent e;
  e.kind = TraceEventKind::kSubroundStart;
  e.seq = 9;
  e.round = 3;
  e.subround = 2;
  e.psi = -1.2345678901234567e-3;  // needs full %.17g round-trip
  e.theta = e.psi / -8.0;
  const std::string line = JsonlTraceSink::EventJson(e);

  TraceEvent parsed;
  std::string error;
  ASSERT_TRUE(ParseTraceEventJson(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, TraceEventKind::kSubroundStart);
  EXPECT_EQ(parsed.seq, 9);
  EXPECT_EQ(parsed.round, 3);
  EXPECT_EQ(parsed.subround, 2);
  EXPECT_EQ(parsed.psi, e.psi) << "double must round-trip bit-exactly";
  EXPECT_EQ(parsed.theta, e.theta);

  EXPECT_FALSE(ParseTraceEventJson("{\"ev\":\"NoSuchEvent\",\"seq\":0}",
                                   &parsed, &error));
  EXPECT_FALSE(ParseTraceEventJson("not json", &parsed, &error));
}

}  // namespace
}  // namespace fgm
