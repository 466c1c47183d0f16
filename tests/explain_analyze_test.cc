// Integration tests for the observability layer threaded through the
// stack: EXPLAIN ANALYZE attribution must be *complete* — per-operator
// meters summed over the pipeline equal the MemStats the simulator
// recorded — and span tracing must produce correctly nested events.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/relational_fabric.h"

namespace relfab {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::Schema;

constexpr uint64_t kRows = 20000;

/// A fabric with one row-format table `events` (with columnar copy and an
/// index on `id`) so every backend is plannable.
class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"kind", ColumnType::kInt32, 0},
                                  {"amount", ColumnType::kInt32, 0},
                                  {"pad", ColumnType::kChar, 32}});
    auto* table = fabric_.CreateTable("events", std::move(*schema)).value();
    RowBuilder b(&table->schema());
    for (uint64_t i = 0; i < kRows; ++i) {
      b.Reset();
      b.AddInt64(static_cast<int64_t>(i))
          .AddInt32(static_cast<int32_t>(i % 8))
          .AddInt32(static_cast<int32_t>(i % 1000))
          .AddChar("padding");
      table->AppendRow(b.Finish());
    }
    // Row base only (the Relational Fabric deployment mode): the planner
    // sends analytics to the fabric. Tests that need the COL backend
    // materialize the copy themselves.
    ASSERT_TRUE(fabric_.CreateIndex("events", "id").ok());
  }

  /// Executes `sql` on a forced backend with profiling and checks the
  /// completeness invariant: operator meters sum to the MemStats totals
  /// the simulator saw for the run.
  obs::QueryProfile RunProfiled(const std::string& sql,
                                query::Backend backend) {
    auto plan = fabric_.ExplainSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan->backend = backend;
    query::Executor executor(&fabric_.catalog(), &fabric_.rm(),
                             fabric_.cost_model());
    fabric_.memory().ResetState();
    obs::QueryProfile profile;
    exec::ExecContext ctx;
    ctx.profile = &profile;
    ctx.options.analyze = true;
    auto result = executor.Execute(*plan, ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();

    const sim::MemStats& stats = fabric_.memory().stats();
    uint64_t demand = 0;
    uint64_t gather = 0;
    uint64_t fabric_reads = 0;
    double cpu = 0;
    for (const obs::OpStats& op : profile.ops) {
      demand += op.dram_lines_demand;
      gather += op.dram_lines_gather;
      fabric_reads += op.fabric_reads;
      cpu += op.cpu_cycles;
    }
    // Every DRAM line and fabric read the simulator recorded is credited
    // to exactly one operator — nothing lost, nothing double-counted.
    EXPECT_EQ(demand, stats.dram_lines_demand) << profile.ToTable();
    EXPECT_EQ(gather, stats.dram_lines_gather) << profile.ToTable();
    EXPECT_EQ(fabric_reads, stats.fabric_reads) << profile.ToTable();
    // CPU cycles likewise (profiling starts after plan/engine setup, which
    // performs no simulated work; tolerance covers double accumulation).
    EXPECT_NEAR(cpu, fabric_.memory().cpu_cycles(), 1.0)
        << profile.ToTable();
    EXPECT_DOUBLE_EQ(profile.total_cycles,
                     static_cast<double>(result->sim_cycles));
    return profile;
  }

  Fabric fabric_;
};

TEST_F(ExplainAnalyzeTest, RowBackendMetersAreComplete) {
  const obs::QueryProfile p = RunProfiled(
      "SELECT SUM(amount) FROM events WHERE kind < 3", query::Backend::kRow);
  EXPECT_EQ(p.backend, "ROW");
  ASSERT_EQ(p.ops.size(), 3u);  // Scan -> Filter -> Aggregate
  EXPECT_EQ(p.ops[0].name, "Scan");
  EXPECT_EQ(p.ops[0].rows_in, kRows);
  EXPECT_EQ(p.ops[0].rows_out, kRows);
  EXPECT_EQ(p.ops[1].name, "Filter");
  EXPECT_EQ(p.ops[1].rows_in, kRows);
  EXPECT_EQ(p.ops[1].rows_out, kRows * 3 / 8);
  EXPECT_EQ(p.ops[2].name, "Aggregate");
  EXPECT_EQ(p.ops[2].rows_in, p.ops[1].rows_out);
  EXPECT_EQ(p.ops[2].rows_out, 1u);
  // The row scan moves the data: demand misses land on the scan operator.
  EXPECT_GT(p.ops[0].dram_lines_demand, 0u);
}

TEST_F(ExplainAnalyzeTest, ColumnBackendMetersAreComplete) {
  ASSERT_TRUE(fabric_.MaterializeColumnarCopy("events").ok());
  const obs::QueryProfile p = RunProfiled(
      "SELECT SUM(amount) FROM events WHERE kind < 3",
      query::Backend::kColumn);
  EXPECT_EQ(p.backend, "COL");
  ASSERT_GE(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].rows_in, kRows);
  EXPECT_EQ(p.ops.back().rows_out, 1u);
}

TEST_F(ExplainAnalyzeTest, RmBackendMetersAreComplete) {
  const obs::QueryProfile p = RunProfiled(
      "SELECT SUM(amount) FROM events WHERE kind < 3",
      query::Backend::kRelationalMemory);
  EXPECT_EQ(p.backend, "RM");
  ASSERT_GE(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].rows_in, kRows);
  // The fabric gathers, it does not demand-miss: movement shows up as
  // gather lines on the scan operator.
  EXPECT_GT(p.ops[0].dram_lines_gather, 0u);
  EXPECT_EQ(p.ops.back().rows_out, 1u);
}

TEST_F(ExplainAnalyzeTest, HybridBackendMetersAreComplete) {
  const obs::QueryProfile p = RunProfiled(
      "SELECT SUM(amount) FROM events WHERE kind < 3",
      query::Backend::kHybrid);
  EXPECT_EQ(p.backend, "HYBRID");
  ASSERT_GE(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].name, "FabricSelect");
  EXPECT_EQ(p.ops[0].rows_in, kRows);
  EXPECT_EQ(p.ops[0].rows_out, kRows * 3 / 8);
}

TEST_F(ExplainAnalyzeTest, IndexBackendMetersAreComplete) {
  const obs::QueryProfile p = RunProfiled(
      "SELECT SUM(amount) FROM events WHERE id = 777",
      query::Backend::kIndex);
  EXPECT_EQ(p.backend, "INDEX");
  ASSERT_GE(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].name, "IndexLookup");
  EXPECT_EQ(p.ops[0].rows_out, 1u);
}

TEST_F(ExplainAnalyzeTest, AnalyzeOptionEndToEnd) {
  fabric_.memory().ResetState();
  auto analyzed = fabric_.ExecuteSql(
      "SELECT SUM(amount) FROM events WHERE kind < 3", {.analyze = true});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed->result.rows_matched, kRows * 3 / 8);
  EXPECT_FALSE(analyzed->profile.ops.empty());
  EXPECT_EQ(analyzed->profile.table, "events");

  const std::string table = analyzed->profile.ToTable();
  EXPECT_NE(table.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(table.find("rows_out"), std::string::npos);

  // The analyzed run returns the same answer as the plain run.
  fabric_.memory().ResetState();
  auto plain =
      fabric_.ExecuteSql("SELECT SUM(amount) FROM events WHERE kind < 3");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->result.aggregates, analyzed->result.aggregates);

  // A second analyzed run through the options path agrees with the
  // first (ExecuteSql(sql, {.analyze = true}) is THE analyze entry
  // point; the pre-QueryOptions ExecuteSqlAnalyzed shim is gone).
  fabric_.memory().ResetState();
  auto again = fabric_.ExecuteSql(
      "SELECT SUM(amount) FROM events WHERE kind < 3", {.analyze = true});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result.aggregates, analyzed->result.aggregates);
  EXPECT_FALSE(again->profile.ops.empty());
}

TEST_F(ExplainAnalyzeTest, ProfilingDisabledIsBitIdentical) {
  // The null-profile path must not change simulated timing: observability
  // costs nothing when off.
  fabric_.memory().ResetState();
  auto plain =
      fabric_.ExecuteSql("SELECT SUM(amount) FROM events WHERE kind < 3");
  ASSERT_TRUE(plain.ok());
  const uint64_t cycles_plain = plain->result.sim_cycles;
  fabric_.memory().ResetState();
  auto analyzed = fabric_.ExecuteSql(
      "SELECT SUM(amount) FROM events WHERE kind < 3", {.analyze = true});
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->result.sim_cycles, cycles_plain);
}

TEST_F(ExplainAnalyzeTest, CollectMetricsSnapshotsTheStack) {
  fabric_.memory().ResetState();
  ASSERT_TRUE(
      fabric_.ExecuteSql("SELECT SUM(amount) FROM events WHERE kind < 3")
          .ok());
  obs::Registry& reg = fabric_.CollectMetrics();
  // The simulator and the RM engine both published; the snapshot mirrors
  // the ground-truth stats.
  EXPECT_EQ(reg.counter("sim.dram.lines_demand")->value(),
            fabric_.memory().stats().dram_lines_demand);
  EXPECT_EQ(reg.counter("sim.dram.lines_gather")->value(),
            fabric_.memory().stats().dram_lines_gather);
  EXPECT_GT(reg.counter("rm.configures")->value(), 0u);
  // And round-trips through JSON.
  auto parsed = obs::Json::Parse(reg.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok());
  obs::Registry restored;
  ASSERT_TRUE(restored.FromJson(*parsed).ok());
  EXPECT_EQ(restored.ToJson().Dump(), reg.ToJson().Dump());
}

TEST_F(ExplainAnalyzeTest, TracingProducesNestedSpans) {
  fabric_.EnableTracing(true);
  fabric_.memory().ResetState();
  ASSERT_TRUE(
      fabric_.ExecuteSql("SELECT SUM(amount) FROM events WHERE kind < 3")
          .ok());
  fabric_.EnableTracing(false);

  const auto& events = fabric_.tracer().events();
  ASSERT_FALSE(events.empty());
  const obs::Tracer::Event* query_span = nullptr;
  size_t gather_spans = 0;
  for (const auto& e : events) {
    if (e.name == "query.execute") query_span = &e;
    if (e.name == "rm.gather.chunk") {
      ++gather_spans;
      EXPECT_GE(e.depth, 1u);  // nested under query.execute
    }
  }
  ASSERT_NE(query_span, nullptr);
  EXPECT_EQ(query_span->depth, 0u);
  EXPECT_GT(gather_spans, 0u);  // planner chose a fabric-backed plan
  // Gather spans are contained within the query span's interval.
  const uint64_t q_end =
      query_span->start_cycles + query_span->duration_cycles;
  for (const auto& e : events) {
    if (e.name != "rm.gather.chunk") continue;
    EXPECT_GE(e.start_cycles, query_span->start_cycles);
    EXPECT_LE(e.start_cycles + e.duration_cycles, q_end);
  }

  // The trace file is well-formed Chrome trace JSON.
  const std::string path = ::testing::TempDir() + "/relfab_trace.json";
  ASSERT_TRUE(fabric_.tracer().WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  auto doc = obs::Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // One "M" thread-name row per track (here just the main CPU track)
  // precedes the span events.
  EXPECT_EQ(doc->at("traceEvents").size(), events.size() + 1);
}

TEST_F(ExplainAnalyzeTest, TracingDisabledRecordsNothing) {
  fabric_.memory().ResetState();
  ASSERT_TRUE(
      fabric_.ExecuteSql("SELECT SUM(amount) FROM events WHERE kind < 3")
          .ok());
  EXPECT_TRUE(fabric_.tracer().events().empty());
}

}  // namespace
}  // namespace relfab
