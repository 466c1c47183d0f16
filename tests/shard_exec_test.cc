// Tests for the parallel shard fan-out path (exec::ShardScheduler +
// the planner's shard pruning): pruning correctness at split
// boundaries, answer equivalence against an unsharded reference table,
// the determinism contract (answers AND cycles bit-identical at any
// host thread count, in both simulator modes), the simulated-width
// cycle model (QueryOptions::max_threads), EXPLAIN ANALYZE shard
// accounting, and per-shard fault isolation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "exec/exec_context.h"
#include "exec/options.h"
#include "faults/fault_plan.h"
#include "query/executor.h"

namespace relfab {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::Schema;

constexpr int64_t kRows = 4000;
// Splits at 1000/2000/3000 -> 4 shards of 1000 keys each (keys 0..3999).
const std::vector<int64_t> kSplits = {1000, 2000, 3000};

Schema MakeSchema() {
  return *Schema::Create({
      {"k", ColumnType::kInt64, 0},
      {"v", ColumnType::kInt32, 0},
      {"g", ColumnType::kInt32, 0},
  });
}

// Deterministic row content, a pure function of the key so the sharded
// and flat tables hold identical data.
void FillRow(RowBuilder* b, int64_t k) {
  b->Reset();
  b->AddInt64(k)
      .AddInt32(static_cast<int32_t>((k * 7 + 13) % 100))
      .AddInt32(static_cast<int32_t>(k % 5));
}

/// Builds a fabric holding the same 4000 rows twice: range-sharded on
/// `k` as "m" (with `replicas` timing-alias replicas per shard) and as
/// the flat row table "flat" (the unsharded oracle).
std::unique_ptr<Fabric> MakeFabric(uint32_t replicas = 1) {
  auto fabric = std::make_unique<Fabric>();
  auto* sharded =
      fabric
          ->CreateShardedTable("m", MakeSchema(), "k",
                               {.splits = kSplits, .replicas = replicas})
          .value();
  auto* flat = fabric->CreateTable("flat", MakeSchema()).value();
  RowBuilder row(&flat->schema());
  for (int64_t k = 0; k < kRows; ++k) {
    FillRow(&row, k);
    const uint8_t* r = row.Finish();
    sharded->Append(r);
    flat->AppendRow(r);
  }
  return fabric;
}

/// Runs `sql` with telemetry on, on a fresh fabric with `replicas`
/// replicas per shard and m.shard1.r0 dead, and returns the statement's
/// query-log record. The statement runs twice — EXPLAIN ANALYZE off,
/// then on — because the record must not depend on ANALYZE: both runs
/// must log byte-identical records.
obs::QueryLogRecord RecordWithShard1Dead(uint32_t replicas,
                                         const std::string& sql,
                                         Fabric::QueryOptions options) {
  std::string first;
  obs::QueryLogRecord record;
  for (const bool analyze : {false, true}) {
    SCOPED_TRACE(analyze ? "analyze on" : "analyze off");
    auto fabric = MakeFabric(replicas);
    fabric->health().MarkDead("m.shard1.r0", "test kill", 0);
    fabric->EnableTelemetry();
    options.analyze = analyze;
    const auto run = fabric->ExecuteSql(sql, options);
    auto recent = fabric->telemetry()->query_log().Recent();
    EXPECT_EQ(recent.size(), 1u);
    if (recent.empty()) return record;
    record = *recent.back();
    EXPECT_EQ(record.status_code,
              StatusCodeToString(run.ok() ? StatusCode::kOk
                                          : run.status().code()));
    const std::string json = record.ToJson().Dump();
    if (first.empty()) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
  return record;
}

class ShardExecTest : public ::testing::Test {
 protected:
  ShardExecTest() { fabric_ = MakeFabric(); }

  // Runs `tmpl` (with "$T" as the table placeholder) against the
  // sharded table and the flat reference and checks the answers agree.
  // rows_scanned is NOT compared (shard pruning legitimately scans
  // fewer rows than a full flat scan); everything functional is. All
  // column values are integers, so sums are exact in double and the
  // comparison can be strict.
  void ExpectMatchesFlat(const std::string& tmpl,
                         const Fabric::QueryOptions& options = {}) {
    auto sharded = fabric_->ExecuteSql(Substitute(tmpl, "m"), options);
    auto flat = fabric_->ExecuteSql(Substitute(tmpl, "flat"));
    ASSERT_TRUE(sharded.ok()) << tmpl << ": " << sharded.status().ToString();
    ASSERT_TRUE(flat.ok()) << tmpl << ": " << flat.status().ToString();
    SCOPED_TRACE(tmpl);
    ExpectSameAnswer(sharded->result, flat->result);
  }

  static void ExpectSameAnswer(const engine::QueryResult& got,
                               const engine::QueryResult& want) {
    EXPECT_EQ(got.rows_matched, want.rows_matched);
    ASSERT_EQ(got.aggregates.size(), want.aggregates.size());
    for (size_t i = 0; i < got.aggregates.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.aggregates[i], want.aggregates[i]) << "agg " << i;
    }
    ASSERT_EQ(got.groups.size(), want.groups.size());
    for (size_t g = 0; g < got.groups.size(); ++g) {
      EXPECT_TRUE(got.groups[g].first == want.groups[g].first) << "group " << g;
      ASSERT_EQ(got.groups[g].second.size(), want.groups[g].second.size());
      for (size_t i = 0; i < got.groups[g].second.size(); ++i) {
        EXPECT_DOUBLE_EQ(got.groups[g].second[i], want.groups[g].second[i])
            << "group " << g << " agg " << i;
      }
    }
    EXPECT_DOUBLE_EQ(got.projection_checksum, want.projection_checksum);
  }

  static std::string Substitute(std::string tmpl, const std::string& table) {
    const size_t pos = tmpl.find("$T");
    EXPECT_NE(pos, std::string::npos) << tmpl;
    return tmpl.replace(pos, 2, table);
  }

  std::vector<uint32_t> PlannedShards(const std::string& sql) {
    auto plan = fabric_->ExplainSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    if (!plan.ok()) return {};
    EXPECT_TRUE(plan->shards.enabled) << sql;
    EXPECT_EQ(plan->shards.shards_total, 4u) << sql;
    return plan->shards.shard_ids;
  }

  std::unique_ptr<Fabric> fabric_;
};

// ------------------------------------------------------------- pruning

TEST_F(ShardExecTest, PrunesAtSplitBoundaries) {
  using V = std::vector<uint32_t>;
  // Exactly one shard when the range lines up with its bounds.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k >= 1000 AND "
                          "k < 2000"),
            (V{1}));
  // Below the first split: shard 0 only.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k < 1000"), (V{0}));
  // <= touches the first key of shard 1.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k <= 1000"),
            (V{0, 1}));
  // Equality pins a single shard; 2000 is shard 2's first key.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k = 2000"), (V{2}));
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k = 1999"), (V{1}));
  // Strict > just below a split starts at the split.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k > 1999"),
            (V{2, 3}));
  // The last shard is open-ended: keys beyond the data still map to it.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k >= 4000"), (V{3}));
  // No key predicate -> full fan-out.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m"), (V{0, 1, 2, 3}));
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE v < 50"),
            (V{0, 1, 2, 3}));
  // Non-key predicates tighten nothing but key predicates still prune.
  EXPECT_EQ(PlannedShards("SELECT COUNT(*) FROM m WHERE k < 500 AND v < 10"),
            (V{0}));
}

TEST_F(ShardExecTest, ContradictoryRangePrunesEverything) {
  EXPECT_TRUE(
      PlannedShards("SELECT COUNT(*) FROM m WHERE k >= 10 AND k < 5").empty());
  // Equality against a non-integral literal can match no int64 key.
  EXPECT_TRUE(PlannedShards("SELECT COUNT(*) FROM m WHERE k = 2.5").empty());

  // An all-pruned query still executes and answers (COUNT = 0).
  auto r = fabric_->ExecuteSql("SELECT COUNT(*) FROM m WHERE k >= 10 AND "
                               "k < 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.rows_scanned, 0u);
  ASSERT_EQ(r->result.aggregates.size(), 1u);
  EXPECT_EQ(r->result.aggregates[0], 0.0);
}

TEST_F(ShardExecTest, BoundaryQueriesMatchFlatReference) {
  ExpectMatchesFlat("SELECT COUNT(*) FROM $T WHERE k >= 1000 AND k < 2000");
  ExpectMatchesFlat("SELECT COUNT(*) FROM $T WHERE k <= 1000");
  ExpectMatchesFlat("SELECT COUNT(*) FROM $T WHERE k = 2000");
  ExpectMatchesFlat("SELECT COUNT(*) FROM $T WHERE k > 2999 AND k <= 3000");
  ExpectMatchesFlat("SELECT COUNT(*) FROM $T WHERE k >= 3999");
}

// ----------------------------------------------- answer equivalence

TEST_F(ShardExecTest, AggregatesMatchFlatReference) {
  ExpectMatchesFlat(
      "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM $T "
      "WHERE k >= 500 AND k < 3500");
  // AVG decomposes into per-shard SUM + hidden COUNT; the merge must
  // reassemble it, including across shards with different counts.
  ExpectMatchesFlat("SELECT AVG(v) FROM $T WHERE k < 2500 AND v < 30");
  ExpectMatchesFlat("SELECT AVG(v), AVG(k) FROM $T");
  // Expressions inside aggregates flow through the partial spec.
  ExpectMatchesFlat("SELECT SUM(v * 2 + 1) FROM $T WHERE k >= 1500");
  // A range matching a single row.
  ExpectMatchesFlat("SELECT SUM(v) FROM $T WHERE k >= 2000 AND k < 2001");
  // A range matching nothing (but scanning one shard): the shard merge
  // applies the empty-aggregate rule again, so all five are 0 on both
  // per-shard scan paths.
  const std::string none =
      "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM $T WHERE "
      "k >= 900 AND k < 950 AND v > 1000";
  for (const exec::Backend backend :
       {exec::Backend::kRow, exec::Backend::kRelationalMemory}) {
    SCOPED_TRACE(exec::BackendToString(backend));
    ExpectMatchesFlat(none, {.forced_backend = backend});
    auto sharded =
        fabric_->ExecuteSql(Substitute(none, "m"), {.forced_backend = backend});
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(sharded->result.aggregates, std::vector<double>(5, 0.0));
  }
}

TEST_F(ShardExecTest, GroupByMergesAcrossShards) {
  // Every g value occurs in every shard: the merge must combine them.
  ExpectMatchesFlat(
      "SELECT g, COUNT(*), SUM(v), AVG(v) FROM $T WHERE k >= 800 "
      "GROUP BY g");
  ExpectMatchesFlat("SELECT g, MIN(v), MAX(v) FROM $T GROUP BY g");
}

TEST_F(ShardExecTest, ProjectionChecksumMatchesFlatReference) {
  ExpectMatchesFlat("SELECT k, v FROM $T WHERE k >= 900 AND k < 1100");
}

// -------------------------------------------------------- determinism

// Answers and simulated cycles must be bit-identical regardless of the
// host worker pool size — scheduling affects wall time only. Pinned in
// both simulator modes (fast path and reference path).
TEST(ShardExecDeterminismTest, HostThreadsOneVsFourBitIdentical) {
  for (const char* fast_path : {"1", "0"}) {
    setenv("RELFAB_SIM_FAST_PATH", fast_path, /*overwrite=*/1);
    auto fabric = MakeFabric();
    const std::string sql =
        "SELECT g, COUNT(*), SUM(v), AVG(v) FROM m WHERE k >= 200 GROUP BY g";

    fabric->shard_scheduler().set_host_threads(1);
    auto serial = fabric->ExecuteSql(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    fabric->shard_scheduler().set_host_threads(4);
    auto parallel = fabric->ExecuteSql(sql);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    EXPECT_EQ(serial->result.sim_cycles, parallel->result.sim_cycles)
        << "fast_path=" << fast_path;
    EXPECT_EQ(serial->result.rows_scanned, parallel->result.rows_scanned);
    ASSERT_EQ(serial->result.groups.size(), parallel->result.groups.size());
    for (size_t i = 0; i < serial->result.groups.size(); ++i) {
      EXPECT_TRUE(serial->result.groups[i].first ==
                  parallel->result.groups[i].first);
      // Bit-identical, not approximately equal: the merge is shard-major.
      EXPECT_EQ(serial->result.groups[i].second,
                parallel->result.groups[i].second);
    }
  }
  unsetenv("RELFAB_SIM_FAST_PATH");
}

// ------------------------------------------------- simulated width

TEST_F(ShardExecTest, MaxThreadsScalesCyclesNotAnswers) {
  const std::string sql = "SELECT COUNT(*), SUM(v) FROM m WHERE v < 60";
  auto one = fabric_->ExecuteSql(sql, {.max_threads = 1});
  auto four = fabric_->ExecuteSql(sql, {.max_threads = 4});
  auto wide = fabric_->ExecuteSql(sql, {.max_threads = 64});
  ASSERT_TRUE(one.ok() && four.ok() && wide.ok());

  // Same answer at every width, bit-identical.
  EXPECT_EQ(one->result.aggregates, four->result.aggregates);
  EXPECT_EQ(one->result.aggregates, wide->result.aggregates);

  // Four simulated workers over four surviving shards beat one worker
  // doing them back to back.
  EXPECT_LT(four->result.sim_cycles, one->result.sim_cycles);
  // Width clamps to the surviving shard count.
  EXPECT_EQ(four->result.sim_cycles, wide->result.sim_cycles);
}

// Exact single-host fan-out cycles, in both simulator modes. The merge
// charges shard_merge_task_cycles per serving shard plus
// agg_update_cycles for every partial slot of every shard — matched or
// not — and for every slot of every group it shipped. A cluster's
// free-network ingest rule would charge a shard with no matching rows
// nothing and a grouped shard only its groups; these pins tell the two
// rules apart.
TEST(ShardCyclePinTest, SingleHostMergeChargeIsExact) {
  for (const char* fast_path : {"1", "0"}) {
    setenv("RELFAB_SIM_FAST_PATH", fast_path, /*overwrite=*/1);
    SCOPED_TRACE(std::string("fast_path=") + fast_path);
    auto fabric = MakeFabric();
    // Shard 0 scans only k=999 (v=6), which does not match.
    auto sparse = fabric->ExecuteSql(
        "SELECT COUNT(*), SUM(v) FROM m WHERE k >= 999 AND k <= 1000 AND "
        "v = 13");
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse->result.aggregates[0], 1.0);
    EXPECT_EQ(sparse->result.sim_cycles, 25180u);

    auto grouped =
        fabric->ExecuteSql("SELECT g, COUNT(*), SUM(v) FROM m GROUP BY g");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    EXPECT_EQ(grouped->result.groups.size(), 5u);
    EXPECT_EQ(grouped->result.sim_cycles, 28905u);
  }
  unsetenv("RELFAB_SIM_FAST_PATH");
}

// ------------------------------------------------------ observability

TEST_F(ShardExecTest, ExplainAnalyzeReportsShardAccounting) {
  auto r = fabric_->ExecuteSql(
      "SELECT SUM(v) FROM m WHERE k >= 1000 AND k < 3000",
      {.analyze = true, .max_threads = 2});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryProfile& profile = r->profile;
  EXPECT_EQ(profile.shards_total, 4u);
  EXPECT_EQ(profile.shards_scanned, 2u);
  EXPECT_EQ(profile.shards_pruned, 2u);
  EXPECT_NE(profile.backend.find("SHARD"), std::string::npos)
      << profile.backend;

  // One op per scanned shard plus the merge, with row attribution.
  int shard_ops = 0;
  bool saw_merge = false;
  for (const obs::OpStats& op : profile.ops) {
    if (op.name.rfind("Shard[", 0) == 0) {
      ++shard_ops;
      EXPECT_EQ(op.rows_in, 1000u) << op.name;
      EXPECT_EQ(op.rows_out, 1000u) << op.name;
      EXPECT_GT(op.cpu_cycles, 0.0) << op.name;
    }
    if (op.name.rfind("Merge[", 0) == 0) saw_merge = true;
  }
  EXPECT_EQ(shard_ops, 2);
  EXPECT_TRUE(saw_merge);

  const std::string table = profile.ToTable();
  EXPECT_NE(table.find("shards: scanned=2 pruned=2 total=4"),
            std::string::npos)
      << table;

  // Lifetime counters surface through the registry (\metrics).
  obs::Registry& registry = fabric_->CollectMetrics();
  EXPECT_GE(registry.counter("shard.scanned")->value(), 2u);
  EXPECT_GE(registry.counter("shard.pruned")->value(), 2u);
  EXPECT_GE(registry.counter("shard.queries")->value(), 1u);
}

// ---------------------------------------------------- forced backends

TEST_F(ShardExecTest, ForcedBackendsOnShardedTable) {
  // Row and RM are the two per-shard scan paths; both must work.
  auto row = fabric_->ExecuteSql(
      "SELECT COUNT(*) FROM m WHERE k < 1500",
      {.forced_backend = exec::Backend::kRow});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_NE(row->plan.explanation.find("SHARD(ROW)"), std::string::npos)
      << row->plan.explanation;

  auto rm = fabric_->ExecuteSql(
      "SELECT COUNT(*) FROM m WHERE k < 1500",
      {.forced_backend = exec::Backend::kRelationalMemory});
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  EXPECT_EQ(row->result.aggregates, rm->result.aggregates);

  // Sharded tables have no columnar copy, index or hybrid path.
  for (exec::Backend backend :
       {exec::Backend::kColumn, exec::Backend::kIndex,
        exec::Backend::kHybrid}) {
    auto bad = fabric_->ExecuteSql("SELECT COUNT(*) FROM m",
                                   {.forced_backend = backend});
    EXPECT_FALSE(bad.ok()) << exec::BackendToString(backend);
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << bad.status().ToString();
  }
}

// ------------------------------------------------------ fault isolation

TEST_F(ShardExecTest, FaultedShardsDegradeWithoutFailingTheQuery) {
  // Baseline answer before arming anything.
  const std::string sql =
      "SELECT COUNT(*), SUM(v), AVG(v) FROM m WHERE k >= 1000";
  auto clean = fabric_->ExecuteSql(sql);
  ASSERT_TRUE(clean.ok());

  // p=1 on the RM gather path: every shard's RM attempt fails and every
  // scanned shard re-runs on the Volcano path — the query still answers.
  fabric_->ArmFaults(*faults::FaultPlan::Parse("rm.gather:p=1"));
  auto faulted = fabric_->ExecuteSql(
      sql, {.analyze = true,
            .forced_backend = exec::Backend::kRelationalMemory});
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_TRUE(faulted->result.SameAnswer(clean->result))
      << faulted->result.ToString();

  exec::ShardScheduler& sched = fabric_->shard_scheduler();
  EXPECT_EQ(sched.shards_degraded(), 3u);  // the 3 scanned shards
  EXPECT_GT(sched.shard_faults_injected(), 0u);

  // EXPLAIN ANALYZE records the partial degradation, per shard.
  EXPECT_NE(faulted->profile.fallback.find("shard"), std::string::npos)
      << faulted->profile.fallback;
  int degraded_ops = 0;
  for (const obs::OpStats& op : faulted->profile.ops) {
    if (op.name.find("->ROW") != std::string::npos) ++degraded_ops;
  }
  EXPECT_EQ(degraded_ops, 3);

  // Counters surface via CollectMetrics (\metrics).
  obs::Registry& registry = fabric_->CollectMetrics();
  EXPECT_EQ(registry.counter("shard.degraded")->value(), 3u);
  EXPECT_EQ(registry.gauge("faults.armed")->value(), 1.0);

  // Disarm: subsequent queries degrade nothing.
  fabric_->ArmFaults(faults::FaultPlan{.rules = {}});
  const uint64_t degraded_before = sched.shards_degraded();
  auto healed = fabric_->ExecuteSql(
      sql, {.forced_backend = exec::Backend::kRelationalMemory});
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->result.SameAnswer(clean->result));
  EXPECT_EQ(sched.shards_degraded(), degraded_before);
}

TEST_F(ShardExecTest, SingleShardFaultDegradesOnlyThatShard) {
  // Each shard task derives a private fault stream from (seed, shard
  // id), so which shards degrade is a deterministic function of the
  // plan — independent of host scheduling. This probability was chosen
  // so that, with the default seed, some but not all of the four shards
  // exhaust their retries; the exact split is pinned below against the
  // determinism contract rather than a particular count.
  fabric_->ArmFaults(*faults::FaultPlan::Parse("rm.gather:p=0.7"));
  const std::string sql = "SELECT COUNT(*), SUM(v) FROM m";
  const Fabric::QueryOptions opts = {
      .analyze = true, .forced_backend = exec::Backend::kRelationalMemory};

  auto first = fabric_->ExecuteSql(sql, opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t degraded_first = fabric_->shard_scheduler().shards_degraded();

  // Deterministic: the same query degrades the same shards again.
  auto second = fabric_->ExecuteSql(sql, opts);
  ASSERT_TRUE(second.ok());
  const uint64_t degraded_second =
      fabric_->shard_scheduler().shards_degraded() - degraded_first;
  EXPECT_EQ(degraded_first, degraded_second);
  EXPECT_EQ(first->result.sim_cycles, second->result.sim_cycles);

  // Partial degradation: healthy shards stay on RM while faulted ones
  // re-ran on the row path — visible per shard in the profile.
  int rm_ops = 0, degraded_ops = 0;
  for (const obs::OpStats& op : first->profile.ops) {
    if (op.name.rfind("Shard[", 0) != 0) continue;
    if (op.name.find("->ROW") != std::string::npos) {
      ++degraded_ops;
    } else {
      ++rm_ops;
    }
  }
  EXPECT_EQ(rm_ops + degraded_ops, 4);
  EXPECT_GT(degraded_ops, 0);
  EXPECT_GT(rm_ops, 0) << "p too high: every shard degraded";

  // And the answer is still right.
  auto flat = fabric_->ExecuteSql("SELECT COUNT(*), SUM(v) FROM flat");
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(first->result.SameAnswer(flat->result));
}

// ----------------------------------------------------- failure domains

TEST(ShardFailoverTest, DeadReplicaFailsOverWithIdenticalAnswer) {
  auto fabric = MakeFabric(/*replicas=*/2);
  const std::string sql = "SELECT COUNT(*), SUM(v), AVG(v) FROM m";
  const Fabric::QueryOptions opts = {.analyze = true, .max_threads = 1};

  auto clean = fabric->ExecuteSql(sql, opts);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Kill shard 1's primary replica: the scheduler must serve the shard
  // from replica 1, charging the failover surcharge — answers are
  // bit-identical (replicas are timing aliases of the same data).
  fabric->health().MarkDead("m.shard1.r0", "test kill", 0);
  auto failed_over = fabric->ExecuteSql(sql, opts);
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();
  EXPECT_TRUE(failed_over->result.SameAnswer(clean->result));

  // Exactly one dead replica skipped, priced by the cost model.
  EXPECT_EQ(failed_over->result.sim_cycles,
            clean->result.sim_cycles +
                static_cast<uint64_t>(
                    fabric->cost_model().shard_failover_cycles));
  EXPECT_EQ(fabric->shard_scheduler().shards_failed_over(), 1u);
  EXPECT_EQ(failed_over->profile.shards_failed_over, 1u);

  // EXPLAIN ANALYZE names the serving replica.
  bool saw_failover_op = false;
  for (const obs::OpStats& op : failed_over->profile.ops) {
    if (op.name.find("replica=1 (failover)") != std::string::npos) {
      saw_failover_op = true;
    }
  }
  EXPECT_TRUE(saw_failover_op) << failed_over->profile.ToTable();

  // Lifetime counters surface through the registry.
  obs::Registry& registry = fabric->CollectMetrics();
  EXPECT_EQ(registry.counter("shard.failed_over")->value(), 1u);
  EXPECT_EQ(registry.gauge("health.dead")->value(), 1.0);

  // The query log carries the failover, with or without ANALYZE.
  const obs::QueryLogRecord logged = RecordWithShard1Dead(
      /*replicas=*/2, "SELECT COUNT(*), SUM(v) FROM m", {});
  EXPECT_EQ(logged.status_code, "ok");
  EXPECT_EQ(logged.shards_failed_over, 1u);
  EXPECT_EQ(logged.cycles, 21501u);
  EXPECT_EQ(logged.shards_total, 4u);
  EXPECT_EQ(logged.shards_scanned, 4u);
  EXPECT_EQ(logged.net_bytes, 0u);
  EXPECT_EQ(logged.shards_ship_rows + logged.shards_ship_aggs, 0u);
}

TEST(ShardFailoverTest, NoLiveReplicaIsStructuredUnavailable) {
  auto fabric = MakeFabric(/*replicas=*/1);
  fabric->health().MarkDead("m.shard1.r0", "test kill", 0);

  // A query needing shard 1 fails with kUnavailable at plan time — a
  // structured error, not a crash.
  auto r = fabric->ExecuteSql("SELECT COUNT(*) FROM m");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
      << r.status().ToString();

  // Queries pruned away from the dead shard still answer normally.
  auto pruned = fabric->ExecuteSql("SELECT COUNT(*) FROM m WHERE k >= 2000");
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->result.aggregates[0], 2000.0);

  // allow_partial opts into answering from the survivors instead.
  auto partial = fabric->ExecuteSql("SELECT COUNT(*) FROM m",
                                    {.allow_partial = true});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->result.partial);
  EXPECT_EQ(partial->result.aggregates[0], 3000.0);  // 4000 minus shard 1

  // The profile counts the shards that actually ran; the query log
  // keeps the planner's view (shards planned, not pruned), so the two
  // differ by the unavailable shard.
  auto analyzed = fabric->ExecuteSql(
      "SELECT COUNT(*) FROM m", {.analyze = true, .allow_partial = true});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed->profile.shards_scanned, 3u);
  EXPECT_EQ(analyzed->profile.shards_unavailable, 1u);
  const obs::QueryLogRecord logged = RecordWithShard1Dead(
      /*replicas=*/1, "SELECT COUNT(*) FROM m", {.allow_partial = true});
  EXPECT_EQ(logged.status_code, "ok");
  EXPECT_EQ(logged.shards_total, 4u);
  EXPECT_EQ(logged.shards_scanned, 4u);
  EXPECT_EQ(logged.shards_pruned, 0u);
  EXPECT_EQ(logged.shards_failed_over, 0u);
}

TEST(ShardFailoverTest, KillAtPOneKillsEveryReplicaAttempted) {
  // Selection-time draws are per serving attempt: at p=1 the primary
  // dies, failover considers replica 1, which draws and dies too — the
  // shard ends with zero live replicas and the query is kUnavailable.
  auto fabric = MakeFabric(/*replicas=*/2);
  fabric->ArmFaults(*faults::FaultPlan::Parse("shard.kill:p=1"));
  auto r = fabric->ExecuteSql("SELECT COUNT(*) FROM m WHERE k < 1000");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
      << r.status().ToString();
  EXPECT_FALSE(fabric->health().alive("m.shard0.r0"));
  EXPECT_FALSE(fabric->health().alive("m.shard0.r1"));
  EXPECT_EQ(fabric->health().deaths().size(), 2u);
}

TEST(ShardFailoverTest, DeadRmDegradesShardedPlanToRow) {
  auto fabric = MakeFabric(/*replicas=*/1);
  const std::string sql = "SELECT COUNT(*), SUM(v) FROM m WHERE v < 60";
  auto clean = fabric->ExecuteSql(sql);
  ASSERT_TRUE(clean.ok());

  fabric->health().MarkDead("rm", "test kill", 0);
  // The planner prices RM at +inf, so the fan-out runs on ROW up front
  // — same answer, no doomed dispatch.
  auto degraded = fabric->ExecuteSql(sql, {.analyze = true});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->result.SameAnswer(clean->result));
  EXPECT_NE(degraded->plan.explanation.find("rm dead"), std::string::npos)
      << degraded->plan.explanation;

  // Forcing the dead backend is a structured refusal.
  auto forced = fabric->ExecuteSql(
      sql, {.forced_backend = exec::Backend::kRelationalMemory});
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------------------------ deadlines

TEST(ShardDeadlineTest, DeadlineCancelsDeterministically) {
  auto fabric = MakeFabric(/*replicas=*/1);
  const std::string sql = "SELECT COUNT(*), SUM(v), AVG(v) FROM m";

  // Reference run: the full fan-out takes T cycles at width 1.
  auto full = fabric->ExecuteSql(sql, {.max_threads = 1});
  ASSERT_TRUE(full.ok());
  const uint64_t total = full->result.sim_cycles;

  // A deadline past the last shard's completion changes nothing.
  auto relaxed = fabric->ExecuteSql(
      sql, {.max_threads = 1, .deadline_cycles = total});
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  EXPECT_TRUE(relaxed->result.SameAnswer(full->result));

  // Half the budget: later shards on the simulated worker's clock
  // complete past the deadline and are cancelled.
  const Fabric::QueryOptions tight = {
      .analyze = true, .max_threads = 1, .deadline_cycles = total / 2};
  auto cancelled = fabric->ExecuteSql(sql, tight);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded)
      << cancelled.status().ToString();

  // The profile survives the error with per-shard attribution intact:
  // re-run the same plan at the executor layer with an external profile
  // sink (the Fabric wrapper discards SqlResult on error).
  auto plan = fabric->ExplainSql(sql, tight);
  ASSERT_TRUE(plan.ok());
  query::Executor executor(&fabric->catalog(), &fabric->rm(),
                           fabric->cost_model());
  obs::QueryProfile profile;
  exec::ExecContext ctx;
  ctx.profile = &profile;
  ctx.scheduler = &fabric->shard_scheduler();
  ctx.health = &fabric->health();
  ctx.options = tight;
  auto direct = executor.Execute(*plan, ctx);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().ToString(), cancelled.status().ToString());
  EXPECT_GT(profile.shards_cancelled, 0u);
  EXPECT_EQ(profile.total_cycles, total / 2);  // clamped to the budget
  int cancelled_ops = 0;
  for (const obs::OpStats& op : profile.ops) {
    if (op.name.find("(cancelled)") != std::string::npos) ++cancelled_ops;
  }
  EXPECT_EQ(static_cast<uint32_t>(cancelled_ops), profile.shards_cancelled);

  // Deterministic across host thread counts and simulator modes: same
  // status, same message, same cancelled set.
  for (const char* fast_path : {"1", "0"}) {
    setenv("RELFAB_SIM_FAST_PATH", fast_path, /*overwrite=*/1);
    for (const int host_threads : {1, 4}) {
      auto replay_fabric = MakeFabric(/*replicas=*/1);
      replay_fabric->shard_scheduler().set_host_threads(host_threads);
      auto replay = replay_fabric->ExecuteSql(sql, tight);
      ASSERT_FALSE(replay.ok());
      EXPECT_EQ(replay.status().ToString(), cancelled.status().ToString())
          << "fast_path=" << fast_path << " host_threads=" << host_threads;
    }
  }
  unsetenv("RELFAB_SIM_FAST_PATH");
}

}  // namespace
}  // namespace relfab
