// Chaos soak: a mixed HTAP workload (SQL analytics over a plain table,
// an MVCC insert/update stream, snapshot reads through ephemeral views,
// and forced fabric-path queries) runs under randomized fault plans and
// must produce *bit-identical* answers to a fault-free reference run —
// faults may only cost cycles and trigger transparent degradation,
// never change data. Also pins the PR-2 determinism contracts: a p=0
// plan is cycle-identical to running unarmed (in both simulator modes),
// and replaying the same plan replays the exact same faults.
//
// $RELFAB_CHAOS_SEED varies the fault plans (CI soaks seeds 1/7/1337);
// the workload itself is fixed so every seed checks the same answers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/relational_fabric.h"
#include "relstorage/rs_engine.h"

namespace relfab {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::Schema;

uint64_t ChaosSeed() {
  const char* s = std::getenv("RELFAB_CHAOS_SEED");
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 0) : 1337;
}

/// When $RELFAB_CHAOS_ARTIFACTS names a directory, each chaotic fabric
/// runs with workload telemetry attached: injected faults and
/// degradations trigger flight-recorder dumps into the directory, and
/// the structured query log streams there as JSONL. CI uploads the
/// directory when the job fails, so a red chaos run ships its own trace
/// evidence. Telemetry is pure observation (telemetry_test pins answers
/// and cycles bit-identical), so the soak's comparisons are unaffected.
void AttachChaosArtifacts(Fabric* fabric, const std::string& tag) {
  const char* dir = std::getenv("RELFAB_CHAOS_ARTIFACTS");
  if (dir == nullptr || *dir == '\0') return;
  obs::TelemetryConfig config;
  config.session = "chaos-" + tag;
  obs::WorkloadTelemetry& telemetry =
      fabric->EnableTelemetry(std::move(config));
  telemetry.flight_recorder().set_dump_path(
      std::string(dir) + "/chaos_flight_" + tag + ".json");
  const Status sink = telemetry.query_log().OpenSink(
      std::string(dir) + "/chaos_qlog_" + tag + ".jsonl");
  RELFAB_CHECK(sink.ok()) << sink.ToString();
}

/// A randomized-but-deterministic plan: every stack site armed with a
/// moderate probability so retries usually clear faults but exhaustion
/// and fallback still happen over a whole workload.
faults::FaultPlan RandomChaosPlan(uint64_t seed) {
  Random rng(seed);
  std::string spec = "seed=" + std::to_string(seed);
  for (const char* site :
       {"rm.config", "rm.stall", "rm.gather", "dram.ecc", "mvcc.commit"}) {
    // dram.ecc fires per cache line touched; keep its rate tiny so the
    // soak stays fast.
    const double p = std::string_view(site) == "dram.ecc"
                         ? rng.NextDouble() * 2e-6
                         : 0.02 + rng.NextDouble() * 0.18;
    spec += ";" + std::string(site) + ":p=" + std::to_string(p);
  }
  StatusOr<faults::FaultPlan> plan = faults::FaultPlan::Parse(spec);
  RELFAB_CHECK(plan.ok()) << plan.status().ToString();
  return *std::move(plan);
}

Schema MetricsSchema() {
  auto s = Schema::Create({{"site", ColumnType::kInt64, 0},
                           {"temp", ColumnType::kInt32, 0},
                           {"load", ColumnType::kInt32, 0},
                           {"err", ColumnType::kInt32, 0}});
  return std::move(s).value();
}

/// Everything the workload computes. All values derive from integer
/// data, so double aggregates are exact and comparable with ==.
struct WorkloadAnswers {
  std::vector<engine::QueryResult> queries;
  int64_t snapshot_sum = 0;
  uint64_t snapshot_rows = 0;

  void ExpectIdentical(const WorkloadAnswers& other) const {
    ASSERT_EQ(queries.size(), other.queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const engine::QueryResult& a = queries[i];
      const engine::QueryResult& b = other.queries[i];
      EXPECT_EQ(a.rows_matched, b.rows_matched) << "query " << i;
      EXPECT_EQ(a.aggregates, b.aggregates) << "query " << i;
      EXPECT_EQ(a.groups, b.groups) << "query " << i;
      EXPECT_EQ(a.projection_checksum, b.projection_checksum)
          << "query " << i;
    }
    EXPECT_EQ(snapshot_sum, other.snapshot_sum);
    EXPECT_EQ(snapshot_rows, other.snapshot_rows);
  }
};

/// Commits `build` as one transaction, restarting it until the commit
/// sticks: injected commit faults abort the transaction, and (as in any
/// MVCC application) the answer to an abort is to re-run the
/// transaction, so injected aborts never change the final data.
void CommitWithRetry(mvcc::TransactionManager* tm,
                     const std::function<Status(mvcc::Transaction*)>& build) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    mvcc::Transaction txn = tm->Begin();
    const Status built = build(&txn);
    RELFAB_CHECK(built.ok()) << built.ToString();
    if (tm->Commit(&txn).ok()) return;
  }
  RELFAB_CHECK(false) << "commit never succeeded in 200 attempts";
}

/// Snapshot aggregate over the versioned table via a hardware-filtered
/// ephemeral view. Both the view configuration and the chunk stream can
/// die on injected faults; like a real client we retry the whole read —
/// a partially delivered stream is detected via view.status() and never
/// silently truncates the sum.
void SnapshotSum(Fabric* fabric, mvcc::VersionedTable* vt,
                 mvcc::TransactionManager* tm, WorkloadAnswers* out) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    relmem::Geometry g;
    g.columns = {1};
    g.visibility = vt->SnapshotFilter(tm->current_ts());
    StatusOr<relmem::EphemeralView> view =
        fabric->ConfigureView("accounts", g);
    if (!view.ok()) continue;  // injected rm.config fault — retry
    int64_t sum = 0;
    uint64_t rows = 0;
    for (relmem::EphemeralView::Cursor cur(&*view); cur.Valid();
         cur.Advance()) {
      sum += cur.GetInt(0);
      ++rows;
    }
    if (!view->status().ok()) continue;  // stream died mid-way — retry
    out->snapshot_sum = sum;
    out->snapshot_rows = rows;
    return;
  }
  RELFAB_CHECK(false) << "snapshot read never completed";
}

/// The fixed mixed workload. Identical operations regardless of the
/// armed plan; only cycles and retry/fallback counts may differ.
WorkloadAnswers RunWorkload(Fabric* fabric) {
  WorkloadAnswers answers;

  // Plain analytics table.
  layout::RowTable* metrics =
      fabric->CreateTable("metrics", MetricsSchema()).value();
  RowBuilder b(&metrics->schema());
  Random data_rng(7);
  for (uint64_t r = 0; r < 20000; ++r) {
    b.Reset();
    b.AddInt64(static_cast<int64_t>(data_rng.Uniform(50)))
        .AddInt32(static_cast<int32_t>(data_rng.Uniform(100)))
        .AddInt32(static_cast<int32_t>(data_rng.Uniform(1000)))
        .AddInt32(static_cast<int32_t>(data_rng.Uniform(10)));
    metrics->AppendRow(b.Finish());
  }

  // Versioned HTAP table.
  Schema accounts_schema = std::move(
      Schema::Create(
          {{"id", ColumnType::kInt64, 0}, {"balance", ColumnType::kInt64, 0}})
          .value());
  mvcc::VersionedTable* vt =
      fabric->CreateVersionedTable("accounts", accounts_schema, 0).value();
  mvcc::TransactionManager* tm =
      fabric->GetTransactionManager("accounts").value();
  RowBuilder ab(&vt->user_schema());

  const auto run_sql = [fabric, &answers](std::string_view sql) {
    StatusOr<Fabric::SqlResult> result = fabric->ExecuteSql(sql);
    RELFAB_CHECK(result.ok()) << sql << ": " << result.status().ToString();
    answers.queries.push_back(std::move(result->result));
  };

  // Forced fabric-path execution: the planner might pick ROW for some of
  // these, but the chaos point is the RM path degrading gracefully, so
  // run them explicitly on the RM backend too.
  query::Executor executor(&fabric->catalog(), &fabric->rm(),
                           fabric->cost_model());
  exec::ExecContext rm_ctx;
  rm_ctx.injector = fabric->fault_injector();
  const auto run_rm = [fabric, &executor, &rm_ctx,
                       &answers](std::string_view sql) {
    StatusOr<query::ParsedQuery> parsed =
        query::Parser(&fabric->catalog()).Parse(sql);
    RELFAB_CHECK(parsed.ok()) << parsed.status().ToString();
    query::Plan plan;
    plan.table = parsed->table;
    plan.backend = query::Backend::kRelationalMemory;
    plan.spec = std::move(parsed->spec);
    StatusOr<engine::QueryResult> result = executor.Execute(plan, rm_ctx);
    RELFAB_CHECK(result.ok()) << sql << ": " << result.status().ToString();
    answers.queries.push_back(std::move(*result));
  };

  // Interleave OLTP batches with analytics, the HTAP shape the paper's
  // ephemeral views exist for.
  Random txn_rng(99);
  int64_t next_id = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      const int64_t id = next_id++;
      const int64_t balance = static_cast<int64_t>(txn_rng.Uniform(10000));
      CommitWithRetry(tm, [&ab, tm, id, balance](mvcc::Transaction* txn) {
        ab.Reset();
        ab.AddInt64(id).AddInt64(balance);
        return tm->Insert(txn, ab.Finish());
      });
    }
    for (int i = 0; i < 20; ++i) {
      const int64_t id = static_cast<int64_t>(txn_rng.Uniform(
          static_cast<uint64_t>(next_id)));
      const int64_t balance = static_cast<int64_t>(txn_rng.Uniform(10000));
      CommitWithRetry(tm, [&ab, tm, id, balance](mvcc::Transaction* txn) {
        ab.Reset();
        ab.AddInt64(id).AddInt64(balance);
        return tm->Update(txn, id, ab.Finish());
      });
    }

    run_sql("SELECT COUNT(*), SUM(temp), SUM(load) FROM metrics "
            "WHERE site < " + std::to_string(10 + round * 10));
    run_sql("SELECT site, SUM(load) FROM metrics WHERE err < 5 "
            "GROUP BY site");
    run_rm("SELECT SUM(temp), MAX(load) FROM metrics WHERE load < " +
           std::to_string(100 + round * 200));
    SnapshotSum(fabric, vt, tm, &answers);
    answers.queries.push_back({});  // slot alignment marker
    answers.queries.back().rows_matched = answers.snapshot_rows;
    answers.queries.back().aggregates = {
        static_cast<double>(answers.snapshot_sum)};
  }

  run_sql("SELECT site, COUNT(*), SUM(temp) FROM metrics GROUP BY site");
  SnapshotSum(fabric, vt, tm, &answers);
  return answers;
}

TEST(ChaosTest, MixedWorkloadIsBitIdenticalUnderRandomFaultPlans) {
  Fabric reference;
  const WorkloadAnswers expected = RunWorkload(&reference);
  EXPECT_EQ(expected.snapshot_rows, 200u);

  const uint64_t seed = ChaosSeed();
  uint64_t total_injected = 0;
  for (int round = 0; round < 3; ++round) {
    const faults::FaultPlan plan = RandomChaosPlan(seed + round);
    SCOPED_TRACE("plan: " + plan.ToString());
    Fabric chaotic;
    chaotic.ArmFaults(plan);
    AttachChaosArtifacts(&chaotic, "round" + std::to_string(round));
    ASSERT_NE(chaotic.fault_injector(), nullptr);
    const WorkloadAnswers got = RunWorkload(&chaotic);
    got.ExpectIdentical(expected);
    total_injected += chaotic.fault_injector()->total_injected();

    // The injector's counters surface through the fabric registry.
    obs::Registry& registry = chaotic.CollectMetrics();
    EXPECT_EQ(registry.gauge("faults.armed")->value(), 1.0);
    EXPECT_EQ(registry.counter("faults.rm.gather.checks")->value(),
              chaotic.fault_injector()->checks(
                  chaotic.fault_injector()->Site("rm.gather")));
  }
  // The soak must actually have injected faults, or it proved nothing.
  EXPECT_GT(total_injected, 0u);
}

TEST(ChaosTest, ZeroProbabilityPlanIsCycleIdenticalToUnarmed) {
  // Arming every site at p=0 must not move the simulated clock by a
  // single cycle relative to an unarmed run, in either simulator mode —
  // the "unarmed = zero behavior change" contract extends to armed-but-
  // silent plans, so golden cycle counts survive fault-capable builds.
  const faults::FaultPlan zero = *faults::FaultPlan::Parse(
      "rm.config:p=0;rm.stall:p=0;rm.gather:p=0;dram.ecc:p=0;"
      "mvcc.commit:p=0");
  for (const bool fast : {true, false}) {
    SCOPED_TRACE(fast ? "fast path" : "reference path");
    Fabric plain;
    plain.memory().set_fast_path(fast);
    const WorkloadAnswers expected = RunWorkload(&plain);

    Fabric armed;
    armed.memory().set_fast_path(fast);
    armed.ArmFaults(zero);
    const WorkloadAnswers got = RunWorkload(&armed);

    got.ExpectIdentical(expected);
    EXPECT_EQ(armed.memory().ElapsedCycles(), plain.memory().ElapsedCycles());
    EXPECT_EQ(armed.fault_injector()->total_injected(), 0u);
    EXPECT_GT(armed.fault_injector()->total_checks(), 0u);
  }
}

TEST(ChaosTest, SamePlanReplaysBitIdentically) {
  const faults::FaultPlan plan = RandomChaosPlan(ChaosSeed());
  Fabric a;
  a.ArmFaults(plan);
  const WorkloadAnswers first = RunWorkload(&a);

  Fabric b;
  b.ArmFaults(plan);
  const WorkloadAnswers second = RunWorkload(&b);

  second.ExpectIdentical(first);
  // Determinism is exact: same faults at the same points, same retries,
  // and the same simulated clock at the end.
  EXPECT_EQ(a.fault_injector()->total_checks(),
            b.fault_injector()->total_checks());
  EXPECT_EQ(a.fault_injector()->total_injected(),
            b.fault_injector()->total_injected());
  EXPECT_EQ(a.fault_injector()->total_retries(),
            b.fault_injector()->total_retries());
  EXPECT_EQ(a.fault_injector()->total_exhausted(),
            b.fault_injector()->total_exhausted());
  EXPECT_EQ(a.memory().ElapsedCycles(), b.memory().ElapsedCycles());
}

TEST(ChaosTest, RmQueryCompletesViaHostFallbackAfterRetryExhaustion) {
  // The documented degradation run: rm.gather at p=1 makes every fabric
  // gather fail, retries exhaust, and the executor transparently
  // re-plans onto the host Volcano row-scan path — the query still
  // succeeds with the exact fabric-free answer, and EXPLAIN ANALYZE
  // records the degradation.
  Fabric fabric;
  layout::RowTable* table =
      fabric.CreateTable("metrics", MetricsSchema()).value();
  RowBuilder b(&table->schema());
  Random rng(7);
  for (uint64_t r = 0; r < 5000; ++r) {
    b.Reset();
    b.AddInt64(static_cast<int64_t>(rng.Uniform(50)))
        .AddInt32(static_cast<int32_t>(rng.Uniform(100)))
        .AddInt32(static_cast<int32_t>(rng.Uniform(1000)))
        .AddInt32(static_cast<int32_t>(rng.Uniform(10)));
    table->AppendRow(b.Finish());
  }

  const std::string_view sql =
      "SELECT COUNT(*), SUM(temp) FROM metrics WHERE site < 25";
  StatusOr<query::ParsedQuery> parsed =
      query::Parser(&fabric.catalog()).Parse(sql);
  ASSERT_TRUE(parsed.ok());
  query::Plan plan;
  plan.table = parsed->table;
  plan.backend = query::Backend::kRelationalMemory;
  plan.spec = parsed->spec;

  query::Executor executor(&fabric.catalog(), &fabric.rm(),
                           fabric.cost_model());

  // Fault-free reference answer on the same forced-RM plan.
  StatusOr<engine::QueryResult> healthy = executor.Execute(plan);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();

  fabric.ArmFaults(*faults::FaultPlan::Parse("rm.gather:p=1"));
  faults::FaultInjector* injector = fabric.fault_injector();
  ASSERT_NE(injector, nullptr);

  obs::QueryProfile profile;
  exec::ExecContext ctx;
  ctx.injector = injector;
  ctx.profile = &profile;
  ctx.options.analyze = true;
  StatusOr<engine::QueryResult> degraded = executor.Execute(plan, ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  // Identical answer, via the host path.
  EXPECT_EQ(degraded->rows_matched, healthy->rows_matched);
  EXPECT_EQ(degraded->aggregates, healthy->aggregates);

  // The failure and recovery are fully accounted: the gather was
  // injected, retried to exhaustion, and the query fell back once.
  const int site = injector->Site("rm.gather");
  EXPECT_GT(injector->injected(site), 0u);
  EXPECT_GE(injector->retries(site), 3u);
  EXPECT_GE(injector->exhausted(site), 1u);
  EXPECT_EQ(injector->total_fallbacks(), 1u);

  // EXPLAIN ANALYZE shows the degradation.
  EXPECT_FALSE(profile.fallback.empty());
  const std::string table_str = profile.ToTable();
  EXPECT_NE(table_str.find("degraded"), std::string::npos);
  // The documented run (see docs/robustness.md):
  std::fputs(table_str.c_str(), stdout);

  obs::Registry& registry = fabric.CollectMetrics();
  EXPECT_GE(registry.counter("faults.fallbacks.total")->value(), 1u);
  EXPECT_GE(registry.counter("faults.rm.gather.exhausted")->value(), 1u);
}

TEST(ChaosTest, NearStorageScanDegradesToHostScanWithIdenticalBytes) {
  // The computational-SSD leg of the same story: persistent device read
  // faults push Scan() onto the host baseline; output bytes match the
  // device path exactly, only pages shipped and cycles change.
  Schema schema = Schema::Uniform(8, ColumnType::kInt32);
  std::vector<uint8_t> data(5000 * schema.row_bytes());
  for (uint64_t r = 0; r < 5000; ++r) {
    for (uint32_t c = 0; c < 8; ++c) {
      const int32_t v = static_cast<int32_t>((r * 8 + c) % 1000);
      std::memcpy(data.data() + r * schema.row_bytes() + c * 4, &v, 4);
    }
  }
  StatusOr<relstorage::StorageTable> table = relstorage::StorageTable::Create(
      std::move(schema), std::move(data), 5000, 4096);
  ASSERT_TRUE(table.ok());

  relmem::Geometry g;
  g.columns = {0, 5};
  g.predicates.push_back(
      relmem::HwPredicate::Int(2, relmem::CompareOp::kLt, 500));

  relstorage::SsdModel healthy_ssd;
  relstorage::RsEngine healthy(&healthy_ssd);
  StatusOr<relstorage::ScanResult> reference = healthy.Scan(*table, g);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(healthy.fallbacks(), 0u);

  faults::FaultInjector injector(
      *faults::FaultPlan::Parse("ssd.read:p=1"));
  relstorage::SsdModel faulty_ssd;
  relstorage::RsEngine degraded(&faulty_ssd);
  degraded.set_fault_injector(&injector);
  StatusOr<relstorage::ScanResult> fallback = degraded.Scan(*table, g);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();

  EXPECT_EQ(degraded.fallbacks(), 1u);
  EXPECT_EQ(fallback->rows_out, reference->rows_out);
  EXPECT_EQ(fallback->data, reference->data);
  EXPECT_GT(injector.exhausted(injector.Site("ssd.read")), 0u);
  EXPECT_EQ(injector.total_fallbacks(), 1u);
}

// --------------------------------------------------- failure domains

/// Everything a kill soak observes: per-statement status codes, the
/// answers of the statements that succeeded, the simulated clock, and
/// the HealthRegistry's canonical state dump. Two runs with the same
/// kill plan must agree on every field; so must the same run at any
/// host thread count or simulator mode.
struct KillSoakResult {
  std::vector<StatusCode> codes;
  std::vector<engine::QueryResult> answers;  // ok statements only
  uint64_t elapsed_cycles = 0;
  std::string health;
  size_t deaths = 0;
};

/// A fixed sharded workload under a kill plan: "readings" range-sharded
/// on k (4 shards x `replicas` timing-alias replicas), three rounds of
/// mixed full-fan-out / pruned / selective statements. kUnavailable and
/// kDeadlineExceeded are expected outcomes once components die; any
/// other error is a test bug.
KillSoakResult RunKillSoak(const std::string& kill_spec, uint32_t replicas,
                           bool fast_path, int host_threads) {
  Fabric fabric;
  fabric.memory().set_fast_path(fast_path);
  auto schema = *Schema::Create({{"k", ColumnType::kInt64, 0},
                                 {"v", ColumnType::kInt32, 0}});
  const std::vector<int64_t> splits = {1000, 2000, 3000};
  auto* sharded =
      fabric
          .CreateShardedTable("readings", schema, "k",
                              {.splits = splits, .replicas = replicas})
          .value();
  RowBuilder b(&sharded->schema());
  for (int64_t k = 0; k < 4000; ++k) {
    b.Reset();
    b.AddInt64(k).AddInt32(static_cast<int32_t>((k * 7 + 13) % 100));
    sharded->Append(b.Finish());
  }
  fabric.shard_scheduler().set_host_threads(host_threads);
  if (!kill_spec.empty()) {
    fabric.ArmFaults(*faults::FaultPlan::Parse(kill_spec));
  }

  const std::vector<std::string> statements = {
      "SELECT COUNT(*), SUM(v) FROM readings",
      "SELECT COUNT(*), SUM(v) FROM readings WHERE k < 1000",
      "SELECT COUNT(*), SUM(v), AVG(v) FROM readings WHERE v < 40",
      "SELECT COUNT(*) FROM readings WHERE k >= 2000",
      "SELECT SUM(v), MAX(v) FROM readings WHERE k >= 1000",
  };
  KillSoakResult out;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : statements) {
      StatusOr<Fabric::SqlResult> r =
          fabric.ExecuteSql(sql, {.max_threads = 2});
      const StatusCode code = r.ok() ? StatusCode::kOk : r.status().code();
      RELFAB_CHECK(code == StatusCode::kOk ||
                   code == StatusCode::kUnavailable ||
                   code == StatusCode::kDeadlineExceeded)
          << sql << ": " << r.status().ToString();
      out.codes.push_back(code);
      if (r.ok()) out.answers.push_back(std::move(r->result));
    }
  }
  out.elapsed_cycles = fabric.memory().ElapsedCycles();
  out.health = fabric.health().ToString();
  out.deaths = fabric.health().deaths().size();
  return out;
}

void ExpectSameSoak(const KillSoakResult& a, const KillSoakResult& b) {
  EXPECT_EQ(a.codes, b.codes);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_TRUE(a.answers[i].SameAnswer(b.answers[i], /*rel_tol=*/0))
        << "statement " << i;
    EXPECT_EQ(a.answers[i].sim_cycles, b.answers[i].sim_cycles)
        << "statement " << i;
  }
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.deaths, b.deaths);
}

TEST(ChaosKillTest, ZeroProbabilityKillPlanIsCycleIdenticalToUnarmed) {
  // The zero-behavior-change contract extends to the kill machinery: a
  // p=0 kill plan draws on every serving attempt but must never move
  // the simulated clock or the answers, in either simulator mode.
  for (const bool fast : {true, false}) {
    SCOPED_TRACE(fast ? "fast path" : "reference path");
    const KillSoakResult unarmed = RunKillSoak("", 2, fast, 2);
    const KillSoakResult armed = RunKillSoak(
        "shard.kill:p=0;rm.kill:p=0;rs.kill:p=0", 2, fast, 2);
    EXPECT_EQ(armed.deaths, 0u);
    EXPECT_EQ(armed.codes, unarmed.codes);
    ASSERT_EQ(armed.answers.size(), unarmed.answers.size());
    for (size_t i = 0; i < armed.answers.size(); ++i) {
      EXPECT_TRUE(armed.answers[i].SameAnswer(unarmed.answers[i], 0));
      EXPECT_EQ(armed.answers[i].sim_cycles, unarmed.answers[i].sim_cycles);
    }
    EXPECT_EQ(armed.elapsed_cycles, unarmed.elapsed_cycles);
  }
}

TEST(ChaosKillTest, KillScheduleReplaysExactly) {
  // Same plan, same workload -> the same components die at the same
  // simulated cycles with the same draws; outcomes, answers, cycles and
  // the health dump are all bit-identical. ArmFaults re-arms a clean
  // slate, so the schedule is a pure function of (plan, workload).
  const std::string spec = "shard.kill:p=0.05;rm.kill:p=0.02;seed=" +
                           std::to_string(ChaosSeed());
  const KillSoakResult first = RunKillSoak(spec, 2, true, 2);
  const KillSoakResult second = RunKillSoak(spec, 2, true, 2);
  ExpectSameSoak(first, second);
}

TEST(ChaosKillTest, KillOutcomesAreHostThreadAndSimModeInvariant) {
  // Death schedules, failovers, availability decisions and deadlines
  // all live on the simulated clock: nothing may change when the host
  // runs wider or the simulator takes its reference path.
  const std::string spec = "shard.kill:p=0.05;rm.kill:p=0.02;seed=" +
                           std::to_string(ChaosSeed());
  const KillSoakResult baseline = RunKillSoak(spec, 2, true, 1);
  for (const bool fast : {true, false}) {
    for (const int host_threads : {1, 4}) {
      if (fast && host_threads == 1) continue;  // the baseline itself
      SCOPED_TRACE(std::string(fast ? "fast" : "reference") + " path, " +
                   std::to_string(host_threads) + " host threads");
      ExpectSameSoak(baseline, RunKillSoak(spec, 2, fast, host_threads));
    }
  }
}

TEST(ChaosKillTest, ReplicasAnswerThroughKillsWithFaultFreeAnswers) {
  // The acceptance run: with the kill plan armed and two replicas per
  // shard, components die mid-workload, yet every statement answers and
  // every answer is bit-identical to the fault-free run — failover is
  // invisible except in cycles and health state.
  const KillSoakResult reference = RunKillSoak("", 2, true, 2);
  for (StatusCode code : reference.codes) EXPECT_EQ(code, StatusCode::kOk);

  // Seed pinned (not ChaosSeed): this test needs a schedule with deaths
  // but no shard losing both replicas — seed 1 at p=0.03 kills at least
  // one replica over the soak while every shard keeps a survivor.
  const KillSoakResult killed =
      RunKillSoak("shard.kill:p=0.03;seed=1", 2, true, 2);
  EXPECT_GT(killed.deaths, 0u);
  for (StatusCode code : killed.codes) EXPECT_EQ(code, StatusCode::kOk);
  ASSERT_EQ(killed.answers.size(), reference.answers.size());
  for (size_t i = 0; i < killed.answers.size(); ++i) {
    EXPECT_TRUE(killed.answers[i].SameAnswer(reference.answers[i], 0))
        << "statement " << i;
  }
}

}  // namespace
}  // namespace relfab
