#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/digest.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/query_log.h"
#include "obs/query_profile.h"
#include "obs/registry.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace relfab::obs {
namespace {

// ---------------------------------------------------------------- Json

TEST(JsonTest, ParseDumpRoundTrip) {
  const char* text =
      R"({"a": 1, "b": [true, false, null, "s\n\"quoted\""], "c": {"d": 2.5}})";
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->is_object());
  EXPECT_EQ(doc->at("a").AsUint(), 1u);
  ASSERT_TRUE(doc->at("b").is_array());
  EXPECT_EQ(doc->at("b").size(), 4u);
  EXPECT_TRUE(doc->at("b").at(0).AsBool());
  EXPECT_TRUE(doc->at("b").at(2).is_null());
  EXPECT_EQ(doc->at("b").at(3).AsString(), "s\n\"quoted\"");
  EXPECT_DOUBLE_EQ(doc->at("c").at("d").AsNumber(), 2.5);

  // Dump must parse back to an equivalent document, compact and pretty.
  for (int indent : {-1, 2}) {
    auto again = Json::Parse(doc->Dump(indent));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->Dump(), doc->Dump());
  }
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(Json::Parse("'single'").ok());
}

TEST(JsonTest, AbsentKeyIsNull) {
  Json obj = Json::Object();
  obj.Set("x", 1);
  EXPECT_TRUE(obj.at("missing").is_null());
  EXPECT_FALSE(obj.Has("missing"));
  EXPECT_TRUE(obj.Has("x"));
}

// ------------------------------------------------------------ Registry

TEST(RegistryTest, CountersGaugesHistograms) {
  Registry reg;
  Counter* c = reg.counter("sim.l1.hits");
  c->Inc();
  c->Inc(9);
  EXPECT_EQ(c->value(), 10u);
  // Same name -> same instrument.
  EXPECT_EQ(reg.counter("sim.l1.hits"), c);

  reg.Set("sim.l1.hit_rate", 0.75);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.l1.hit_rate")->value(), 0.75);

  for (int i = 1; i <= 100; ++i) reg.Observe("rm.chunk_rows", i);
  Histogram* h = reg.histogram("rm.chunk_rows");
  EXPECT_EQ(h->count(), 100u);
  EXPECT_DOUBLE_EQ(h->sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
  EXPECT_DOUBLE_EQ(h->mean(), 50.5);
  // Log-linear sketch: the quantile is an upper bound with < 1/kSubBuckets
  // relative error.
  EXPECT_GE(h->Quantile(0.5), 50.0);
  EXPECT_LE(h->Quantile(0.5), 50.0 * (1.0 + 1.0 / Histogram::kSubBuckets));
  EXPECT_LE(h->Quantile(1.0), 100.0 * (1.0 + 1.0 / Histogram::kSubBuckets));
}

TEST(RegistryTest, ResetZeroesButKeepsHandles) {
  Registry reg;
  Counter* c = reg.counter("a");
  c->Inc(5);
  reg.Observe("h", 3.0);
  reg.Set("g", 1.5);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.counter("a"), c);  // handle survives
  EXPECT_EQ(reg.histogram("h")->count(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g")->value(), 0.0);
}

TEST(RegistryTest, MergeAccumulatesCountersAndHistograms) {
  Registry a;
  Registry b;
  a.Add("n", 3);
  b.Add("n", 4);
  b.Add("only_b", 7);
  a.Set("g", 1.0);
  b.Set("g", 2.0);
  for (int i = 0; i < 10; ++i) a.Observe("h", 1.0);
  for (int i = 0; i < 5; ++i) b.Observe("h", 100.0);

  a.MergeFrom(b);
  EXPECT_EQ(a.counter("n")->value(), 7u);
  EXPECT_EQ(a.counter("only_b")->value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g")->value(), 2.0);  // gauges: latest reading
  Histogram* h = a.histogram("h");
  EXPECT_EQ(h->count(), 15u);
  EXPECT_DOUBLE_EQ(h->sum(), 10.0 + 500.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
}

TEST(RegistryTest, JsonRoundTrip) {
  Registry reg;
  reg.Add("sim.l1.hits", 12345);
  reg.Add("rm.configures", 3);
  reg.Set("sim.l1.hit_rate", 0.875);
  for (int i = 1; i <= 1000; ++i) reg.Observe("lat", i * 7.0);

  const Json snapshot = reg.ToJson();
  // Snapshot survives a serialize/parse cycle.
  auto parsed = Json::Parse(snapshot.Dump(2));
  ASSERT_TRUE(parsed.ok());

  Registry restored;
  ASSERT_TRUE(restored.FromJson(*parsed).ok());
  EXPECT_EQ(restored.counter("sim.l1.hits")->value(), 12345u);
  EXPECT_EQ(restored.counter("rm.configures")->value(), 3u);
  EXPECT_DOUBLE_EQ(restored.gauge("sim.l1.hit_rate")->value(), 0.875);
  const Histogram* h = restored.histogram("lat");
  EXPECT_EQ(h->count(), 1000u);
  EXPECT_DOUBLE_EQ(h->sum(), reg.histogram("lat")->sum());
  EXPECT_DOUBLE_EQ(h->min(), 7.0);
  EXPECT_DOUBLE_EQ(h->max(), 7000.0);
  // Buckets restored exactly -> identical quantiles and second snapshot.
  EXPECT_DOUBLE_EQ(h->Quantile(0.9), reg.histogram("lat")->Quantile(0.9));
  EXPECT_EQ(restored.ToJson().Dump(), snapshot.Dump());
}

TEST(RegistryTest, FromJsonRejectsMalformed) {
  Registry reg;
  EXPECT_FALSE(reg.FromJson(Json("not an object")).ok());
  auto bad = Json::Parse(R"({"counters": [1, 2]})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(reg.FromJson(*bad).ok());
}

TEST(RegistryTest, ToTableGroupsByPrefix) {
  Registry reg;
  reg.Add("sim.l1.hits", 1);
  reg.Add("rm.rows", 2);
  const std::string table = reg.ToTable();
  EXPECT_NE(table.find("sim.l1.hits"), std::string::npos);
  EXPECT_NE(table.find("rm.rows"), std::string::npos);
}

// -------------------------------------------------------------- Tracer

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;  // disabled by default
  {
    Span outer(&tracer, "outer");
    outer.AddArg("k", std::string("v"));
    Span inner(&tracer, "inner");
  }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.depth(), 0u);

  // Null tracer is equally inert.
  Span span(nullptr, "nothing");
  span.AddArg("k", uint64_t{1});
}

TEST(TracerTest, NestedSpansRecordDepthAndTiming) {
  uint64_t clock = 0;
  Tracer tracer;
  tracer.SetClock([&clock] { return clock; });
  tracer.set_enabled(true);

  {
    Span outer(&tracer, "query.execute", "query");
    outer.AddArg("backend", std::string("RM"));
    clock = 100;
    {
      Span inner(&tracer, "rm.gather.chunk", "relmem");
      EXPECT_EQ(tracer.depth(), 2u);
      clock = 250;
    }
    clock = 400;
  }
  EXPECT_EQ(tracer.depth(), 0u);

  // Inner span closes first (RAII), so it is emitted first.
  ASSERT_EQ(tracer.events().size(), 2u);
  const Tracer::Event& inner = tracer.events()[0];
  const Tracer::Event& outer = tracer.events()[1];
  EXPECT_EQ(inner.name, "rm.gather.chunk");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.start_cycles, 100u);
  EXPECT_EQ(inner.duration_cycles, 150u);
  EXPECT_EQ(outer.name, "query.execute");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.start_cycles, 0u);
  EXPECT_EQ(outer.duration_cycles, 400u);
  // Correct nesting: inner is contained in [outer.start, outer.end].
  EXPECT_GE(inner.start_cycles, outer.start_cycles);
  EXPECT_LE(inner.start_cycles + inner.duration_cycles,
            outer.start_cycles + outer.duration_cycles);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].first, "backend");
  EXPECT_EQ(outer.args[0].second, "RM");
}

TEST(TracerTest, ClockStaysMonotonicAcrossResets) {
  uint64_t clock = 1000;
  Tracer tracer;
  tracer.SetClock([&clock] { return clock; });
  tracer.set_enabled(true);
  { Span s(&tracer, "first"); clock = 2000; }
  clock = 0;  // simulated ResetTiming between queries
  Span s(&tracer, "second");
  clock = 50;
  s.End();
  ASSERT_EQ(tracer.events().size(), 2u);
  // The second span must not start before the first ended.
  EXPECT_GE(tracer.events()[1].start_cycles, 2000u);
  EXPECT_EQ(tracer.events()[1].duration_cycles, 50u);
}

TEST(TracerTest, ToJsonIsWellFormedChromeTrace) {
  uint64_t clock = 0;
  Tracer tracer;
  tracer.SetClock([&clock] { return clock; });
  tracer.set_enabled(true);
  {
    Span outer(&tracer, "a", "cat1");
    clock = 10;
    Span inner(&tracer, "b", "cat2");
    inner.AddArg("rows", uint64_t{42});
    clock = 20;
  }

  const Json doc = tracer.ToJson();
  auto parsed = Json::Parse(doc.Dump(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& events = parsed->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // Leading "M" rows name the tracks; the spans follow as "X" rows.
  size_t meta = 0, spans = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ph").is_string());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    if (e.at("ph").AsString() == "M") {
      ++meta;
      continue;
    }
    ++spans;
    EXPECT_TRUE(e.at("cat").is_string());
    EXPECT_EQ(e.at("ph").AsString(), "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
  }
  EXPECT_EQ(meta, 1u);  // the main "sim (CPU)" track name
  ASSERT_EQ(spans, 2u);
  EXPECT_EQ(events.at(1).at("args").at("rows").AsString(), "42");
}

// ---------------------------------------------------------- OpProfiler

TEST(OpProfilerTest, SwitchAttributesMeterDeltas) {
  MeterSample meters;
  QueryProfile profile;
  OpProfiler prof(&profile, [&meters] { return meters; });

  const int scan = prof.AddOp("Scan");
  const int agg = prof.AddOp("Aggregate");

  prof.Switch(scan);
  meters.cpu_cycles += 100;
  meters.dram_lines_demand += 7;
  prof.Switch(agg);
  meters.cpu_cycles += 40;
  prof.Switch(scan);
  meters.cpu_cycles += 60;
  meters.dram_lines_gather += 3;
  prof.Finish();

  ASSERT_EQ(profile.ops.size(), 2u);
  EXPECT_EQ(profile.ops[0].name, "Scan");
  EXPECT_DOUBLE_EQ(profile.ops[0].cpu_cycles, 160.0);
  EXPECT_EQ(profile.ops[0].dram_lines_demand, 7u);
  EXPECT_EQ(profile.ops[0].dram_lines_gather, 3u);
  EXPECT_EQ(profile.ops[0].dram_lines_total(), 10u);
  EXPECT_DOUBLE_EQ(profile.ops[1].cpu_cycles, 40.0);

  profile.backend = "ROW";
  profile.table = "t";
  const std::string table = profile.ToTable();
  EXPECT_NE(table.find("Scan"), std::string::npos);
  EXPECT_NE(table.find("Aggregate"), std::string::npos);
  auto parsed = Json::Parse(profile.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("operators").size(), 2u);
}

// ------------------------------------------------------------- Reports

TEST(RunReportTest, ToJsonValidates) {
  RunReport report("fig5_projectivity");
  report.SetConfig("rows", uint64_t{1024});
  report.SetConfig("full_scale", "0");
  report.AddResult("ROW", "1", 1000, /*host_wall_ms=*/2.5,
                   /*sim_lines=*/5000);
  report.AddResult("RM", "1", 400, /*host_wall_ms=*/1.25);
  Registry reg;
  reg.Add("sim.l1.hits", 5);
  report.SetMetrics(reg);

  const Json doc = report.ToJson();
  EXPECT_TRUE(RunReport::Validate(doc).ok());
  EXPECT_EQ(doc.at("schema_version").AsUint(), 2u);
  EXPECT_EQ(doc.at("bench").AsString(), "fig5_projectivity");
  EXPECT_EQ(doc.at("results").size(), 2u);
  EXPECT_EQ(doc.at("results").at(1).at("sim_cycles").AsUint(), 400u);
  // v2: host wall time is mandatory; the throughput figure appears only
  // when the bench noted the simulated line count.
  EXPECT_EQ(doc.at("results").at(0).at("host_wall_ms").AsNumber(), 2.5);
  EXPECT_EQ(doc.at("results").at(0).at("sim_lines_per_host_sec").AsNumber(),
            5000 / 2.5e-3);
  EXPECT_TRUE(doc.at("results").at(1).at("sim_lines_per_host_sec").is_null());
  EXPECT_EQ(doc.at("config").at("rows").AsString(), "1024");
  EXPECT_EQ(doc.at("metrics").at("counters").at("sim.l1.hits").AsUint(), 5u);

  // Validate survives a serialize/parse cycle (what the CI job does).
  auto parsed = Json::Parse(doc.Dump(1));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(RunReport::Validate(*parsed).ok());
}

TEST(RunReportTest, ValidateRejectsMalformed) {
  EXPECT_FALSE(RunReport::Validate(Json("nope")).ok());
  EXPECT_FALSE(RunReport::Validate(Json::Object()).ok());

  RunReport report("x");
  report.AddResult("s", "1", 2);
  Json doc = report.ToJson();
  doc.Set("schema_version", 99);
  EXPECT_FALSE(RunReport::Validate(doc).ok());

  Json doc2 = report.ToJson();
  Json results = Json::Array();
  results.Append(Json("not an object"));
  doc2.Set("results", std::move(results));
  EXPECT_FALSE(RunReport::Validate(doc2).ok());
}

// ------------------------------------------------------------- Logging

using ObsCheckDeathTest = ::testing::Test;

// --------------------------------------------------- histogram buckets

TEST(RegistryTest, HistogramJsonCarriesBucketEdgeTriples) {
  Registry reg;
  for (int i = 1; i <= 1000; ++i) reg.Observe("lat", i * 3.0);
  const Json snapshot = reg.ToJson();
  const Json& hist = snapshot.at("histograms").at("lat");
  // The full quantile ladder is exported, not just p50/p99.
  for (const char* q : {"p50", "p90", "p99", "p999"}) {
    EXPECT_TRUE(hist.Has(q)) << q;
  }
  EXPECT_GE(hist.at("p999").AsNumber(), hist.at("p50").AsNumber());
  const Json& buckets = hist.at("buckets");
  ASSERT_TRUE(buckets.is_array());
  ASSERT_GT(buckets.size(), 0u);
  for (size_t i = 0; i < buckets.size(); ++i) {
    const Json& triple = buckets.at(i);
    // [lower_edge, upper_edge, count]: self-describing without the
    // reader re-deriving the log-linear layout.
    ASSERT_EQ(triple.size(), 3u);
    EXPECT_LT(triple.at(0).AsNumber(), triple.at(1).AsNumber());
    EXPECT_GT(triple.at(2).AsUint(), 0u);
  }
}

TEST(RegistryTest, FromJsonAcceptsLegacyBucketPairs) {
  // Pre-triple snapshots carried [lower_edge, count]; restore still
  // accepts them so old bench reports keep loading.
  auto doc = Json::Parse(
      R"({"counters": {}, "gauges": {}, "histograms": {"lat": {
           "count": 5, "sum": 50, "min": 10, "max": 10,
           "buckets": [[10, 5]]}}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Registry reg;
  ASSERT_TRUE(reg.FromJson(*doc).ok());
  const Histogram* h = reg.histogram("lat");
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->max(), 10.0);
  // The 5 observations landed in the bucket containing 10.
  EXPECT_GE(h->Quantile(1.0), 10.0);
}

TEST(RegistryTest, ToTableIsSortedAcrossInstrumentKinds) {
  Registry reg;
  // Interleave kinds so a per-kind listing would break name order.
  reg.Add("b.counter", 1);
  reg.Set("a.gauge", 2.0);
  reg.Observe("c.hist", 3.0);
  reg.Add("a.counter", 4);
  const std::string table = reg.ToTable();
  const size_t pa = table.find("a.counter");
  const size_t pb = table.find("a.gauge");
  const size_t pc = table.find("b.counter");
  const size_t pd = table.find("c.hist");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pc, std::string::npos);
  ASSERT_NE(pd, std::string::npos);
  // One unified lexicographic order regardless of instrument kind.
  EXPECT_LT(pa, pb);
  EXPECT_LT(pb, pc);
  EXPECT_LT(pc, pd);
}

// ----------------------------------------------------------- DigestSet

TEST(DigestSetTest, MergeOfSplitStreamsMatchesUnsplit) {
  // The determinism contract behind cross-session merging: feeding one
  // stream into a single set must equal splitting it across sets and
  // merging in order — bucket counts, moments and quantiles all.
  DigestSet whole;
  DigestSet part_a;
  DigestSet part_b;
  for (int i = 1; i <= 500; ++i) {
    const double v = (i * 37) % 1000 + 1;
    whole.Observe("query.cycles", v);
    (i <= 250 ? part_a : part_b).Observe("query.cycles", v);
  }
  DigestSet merged;
  merged.MergeFrom(part_a);
  merged.MergeFrom(part_b);
  const Histogram* w = whole.digests().at("query.cycles").get();
  const Histogram* m = merged.digests().at("query.cycles").get();
  EXPECT_EQ(w->count(), m->count());
  EXPECT_EQ(w->sum(), m->sum());  // bit-equality, split was in order
  EXPECT_EQ(w->min(), m->min());
  EXPECT_EQ(w->max(), m->max());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(w->Quantile(q), m->Quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(whole.ToJson().Dump(), merged.ToJson().Dump());
}

TEST(DigestSetTest, ExportPrefixesNamesAndKeepsSketch) {
  DigestSet set;
  for (int i = 1; i <= 100; ++i) set.Observe("shard.cycles", i * 11.0);
  Registry reg;
  set.ExportTo(&reg);
  const Histogram* h = reg.histogram("digest.shard.cycles");
  EXPECT_EQ(h->count(), 100u);
  EXPECT_EQ(h->Quantile(0.99),
            set.digests().at("shard.cycles")->Quantile(0.99));
}

// ---------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, ClosesWindowsOnBoundariesWithCounterDeltas) {
  Registry reg;
  TimeSeries series(/*window_cycles=*/1000, /*capacity=*/8);
  series.Track("stmt");
  series.Track("load");

  reg.Add("stmt", 3);
  reg.Set("load", 0.25);
  series.Sample(reg, 100);  // opens window 0
  reg.Add("stmt", 2);
  reg.Set("load", 0.75);
  series.Sample(reg, 900);  // still window 0
  reg.Add("stmt", 7);
  series.Sample(reg, 1500);  // crosses into window 1 -> closes window 0

  auto windows = series.Windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[0].start_cycles, 0u);
  EXPECT_EQ(windows[0].end_cycles, 1000u);
  EXPECT_EQ(windows[0].samples, 2u);
  // Counter: delta over the window. The first-ever sample charges from
  // zero, and the boundary-crossing sample's readings close the old
  // window — activity between the last in-window sample and the
  // boundary is attributed to the closing window, so no delta is ever
  // lost between windows: 0 -> 12 = 12.
  EXPECT_DOUBLE_EQ(windows[0].values.at("stmt"), 12.0);
  // Gauge: last reading inside the window.
  EXPECT_DOUBLE_EQ(windows[0].values.at("load"), 0.75);
}

TEST(TimeSeriesTest, RingEvictsOldestWindows) {
  Registry reg;
  TimeSeries series(/*window_cycles=*/100, /*capacity=*/4);
  series.Track("stmt");
  for (uint64_t w = 0; w < 10; ++w) {
    reg.Add("stmt", 1);
    series.Sample(reg, w * 100 + 50);
  }
  // 10 samples in distinct windows -> 9 closed, ring keeps last 4.
  EXPECT_EQ(series.windows_closed(), 9u);
  auto windows = series.Windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows.front().index, 5u);  // oldest retained
  EXPECT_EQ(windows.back().index, 8u);   // newest closed
  for (const auto& w : windows) {
    EXPECT_DOUBLE_EQ(w.values.at("stmt"), 1.0);
  }
}

TEST(TimeSeriesTest, ToJsonListsWindowsOldestFirst) {
  Registry reg;
  TimeSeries series(/*window_cycles=*/100, /*capacity=*/8);
  series.Track("stmt");
  for (uint64_t w = 0; w < 3; ++w) {
    reg.Add("stmt", 1);
    series.Sample(reg, w * 100);
  }
  const Json doc = series.ToJson();
  EXPECT_EQ(doc.at("window_cycles").AsUint(), 100u);
  const Json& windows = doc.at("windows");
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_LT(windows.at(0).at("index").AsUint(),
            windows.at(1).at("index").AsUint());
}

// ------------------------------------------------------------ QueryLog

QueryLogRecord MakeRecord(const std::string& sql) {
  QueryLogRecord r;
  r.session = "test";
  r.sql = sql;
  r.table = "readings";
  r.backend = "COLUMNAR";
  r.cycles = 1234;
  r.end_cycles = 5678;
  r.rows_scanned = 100;
  r.rows_matched = 10;
  r.shards_total = 4;
  r.shards_scanned = 1;
  r.shards_pruned = 3;
  return r;
}

TEST(QueryLogTest, RecordJsonPassesSchemaValidation) {
  QueryLogRecord ok = MakeRecord("SELECT 1");
  EXPECT_TRUE(QueryLog::ValidateRecord(ok.ToJson()).ok());

  QueryLogRecord err = MakeRecord("SELECT nope");
  err.ok = false;
  err.error = "unknown column";
  EXPECT_TRUE(QueryLog::ValidateRecord(err.ToJson()).ok());

  QueryLogRecord degraded = MakeRecord("SELECT 2");
  degraded.degraded = true;
  degraded.degradation = "shard fallback";
  EXPECT_TRUE(QueryLog::ValidateRecord(degraded.ToJson()).ok());
}

TEST(QueryLogTest, ValidateRejectsMalformedRecords) {
  // Missing field.
  Json missing = MakeRecord("x").ToJson();
  missing.Set("backend", Json());
  EXPECT_FALSE(QueryLog::ValidateRecord(missing).ok());
  // Bad status value.
  Json bad_status = MakeRecord("x").ToJson();
  bad_status.Set("status", "maybe");
  EXPECT_FALSE(QueryLog::ValidateRecord(bad_status).ok());
  // Error status without an error string.
  Json no_error = MakeRecord("x").ToJson();
  no_error.Set("status", "error");
  EXPECT_FALSE(QueryLog::ValidateRecord(no_error).ok());
  // Not an object at all.
  EXPECT_FALSE(QueryLog::ValidateRecord(Json("nope")).ok());
}

TEST(QueryLogTest, RingKeepsRecentAndSeqKeepsCounting) {
  QueryLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Append(MakeRecord("stmt " + std::to_string(i)));
  }
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.size(), 3u);
  auto recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0]->sql, "stmt 2");  // oldest retained
  EXPECT_EQ(recent[2]->sql, "stmt 4");  // newest
  EXPECT_EQ(recent[0]->seq + 2, recent[2]->seq);
}

TEST(QueryLogTest, JsonlSinkWritesValidatableLines) {
  const std::string path = ::testing::TempDir() + "qlog_test.jsonl";
  std::remove(path.c_str());
  {
    QueryLog log;
    ASSERT_TRUE(log.OpenSink(path).ok());
    log.Append(MakeRecord("SELECT a"));
    log.Append(MakeRecord("SELECT b"));
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  int lines = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    auto doc = Json::Parse(line);
    ASSERT_TRUE(doc.ok()) << "line " << lines << ": " << line;
    EXPECT_TRUE(QueryLog::ValidateRecord(*doc).ok());
    ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 2);
}

// ------------------------------------------------------ FlightRecorder

TEST(FlightRecorderTest, RingWrapsAndKeepsNewestEntries) {
  FlightRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Log("test", "event " + std::to_string(i),
            static_cast<uint64_t>(i) * 100);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.size(), 4u);
  const Json doc = rec.ToJson();
  const Json& events = doc.at("traceEvents");
  // One metadata event plus the four retained markers, oldest first.
  std::vector<std::string> names;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events.at(i).at("ph").AsString() == "i") {
      names.push_back(events.at(i).at("name").AsString());
    }
  }
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names.front(), "event 6");
  EXPECT_EQ(names.back(), "event 9");
}

TEST(FlightRecorderTest, TracerFeedsRingWhileTracingDisabled) {
  FlightRecorder rec;
  Tracer tracer;
  uint64_t clock = 0;
  tracer.SetClock([&clock] { return clock; });
  tracer.set_flight_recorder(&rec);
  ASSERT_FALSE(tracer.enabled());
  ASSERT_TRUE(tracer.active());
  {
    Span span(&tracer, "work", "query");
    clock += 500;
  }
  // The span landed in the ring, not in the (disabled) trace buffer.
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(rec.size(), 1u);
  tracer.set_flight_recorder(nullptr);
  EXPECT_FALSE(tracer.active());
}

TEST(FlightRecorderTest, TriggerDumpWritesChromeTraceArtifact) {
  const std::string path = ::testing::TempDir() + "flight_test.json";
  std::remove(path.c_str());
  FlightRecorder rec;
  rec.set_dump_path(path);
  rec.Log("shard", "shard 2 degraded: injected fault", 700);
  ASSERT_TRUE(rec.TriggerDump("degraded: test incident", 900).ok());
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_EQ(rec.last_reason(), "degraded: test incident");
  EXPECT_EQ(rec.last_trigger_cycles(), 900u);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->at("traceEvents").is_array());
  EXPECT_EQ(doc->at("otherData").at("reason").AsString(),
            "degraded: test incident");
  EXPECT_EQ(doc->at("otherData").at("trigger_cycles").AsUint(), 900u);
}

TEST(ObsCheckDeathTest, CheckEqPrintsBothOperands) {
  const int n = 3;
  const int m = 5;
  EXPECT_DEATH(RELFAB_CHECK_EQ(n, m), "n == m \\(3 vs. 5\\)");
  EXPECT_DEATH(RELFAB_CHECK_GT(n, m), "n > m \\(3 vs. 5\\)");
  const std::string a = "left";
  EXPECT_DEATH(RELFAB_CHECK_NE(a, a), "left vs. left");
}

TEST(ObsCheckDeathTest, CheckOpStreamsExtraContext) {
  EXPECT_DEATH(RELFAB_CHECK_EQ(1, 2) << "extra " << 42, "extra 42");
}

TEST(ObsCheckTest, PassingChecksEvaluateOperandsOnce) {
  int evals = 0;
  auto bump = [&evals] { return ++evals; };
  RELFAB_CHECK_EQ(bump(), 1);
  EXPECT_EQ(evals, 1);
  RELFAB_CHECK_LE(1, 1);
  RELFAB_CHECK_GE(2, 1);
  RELFAB_CHECK_LT(1, 2);
}

TEST(ObsCheckTest, DcheckMatchesBuildMode) {
  int evals = 0;
#ifdef NDEBUG
  // Compiled out: the condition must not even be evaluated.
  RELFAB_DCHECK(++evals > 0);
  EXPECT_EQ(evals, 0);
#else
  RELFAB_DCHECK(++evals > 0);
  EXPECT_EQ(evals, 1);
#endif
}

}  // namespace
}  // namespace relfab::obs
