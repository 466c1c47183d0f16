// Chaos endurance driver for the failure-domain stack: N simulated
// sessions each replay a deterministic mixed workload against their own
// replicated sharded fabric while a `shard.kill` / `rm.kill` fault plan
// permanently kills components mid-run. The headline output is the
// availability split — what fraction of statements were answered,
// answered degraded (failover / host fallback), or structurally
// unavailable — plus the death schedule each session observed.
//
// Sessions are the sweep cells; each cell builds a private Fabric from
// its session seed and arms a session-seeded kill plan, so the death
// schedule, the per-statement outcomes and the cycles are bit-identical
// no matter which host worker runs the cell or how many workers there
// are (--threads 1 vs 4), and in both simulator modes. CI pins exactly
// that, and asserts an availability floor with replicas >= 2.
//
// Flags beyond the standard harness set:
//   --sessions N         simulated sessions (default 8)
//   --statements M       statements per session (default 40)
//   --replicas R         timing-alias replicas per shard (default 2)
//   --kill-p P           per-attempt shard.kill probability (default 0.004;
//                        rm.kill is armed at P/2)
//   --kill-seed S        base seed for the kill plans (default 1)
//   --deadline-cycles D  per-statement cycle-domain deadline (0 = off)
//   --qlog PATH          write the merged query log as JSONL
//
// `--json <report>` embeds the availability counters in the metrics
// snapshot under "workload.*"; summarize a --qlog file with
// tools/analyze_query_log.py (kill outcomes land in "status_code").

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/relational_fabric.h"

namespace relfab::bench {
namespace {

/// Row content is a pure function of the key so every session holds
/// identical data and fault-free answers are host-checkable.
int32_t TempFor(int64_t ts) { return static_cast<int32_t>((ts * 13 + 7) % 500); }
int32_t AmountFor(int64_t i) {
  return static_cast<int32_t>((i * 31 + 11) % 10000);
}

struct ChaosParams {
  uint64_t rows = 20000;
  int sessions = 8;
  int statements = 40;
  uint32_t replicas = 2;
  double kill_p = 0.004;
  uint64_t kill_seed = 1;
  uint64_t deadline_cycles = 0;
};

/// Everything one session leaves behind for the session-major merge.
struct SessionOut {
  std::vector<obs::QueryLogRecord> records;
  uint64_t total_cycles = 0;
  uint64_t answered = 0;      // status ok (includes degraded answers)
  uint64_t degraded = 0;      // answered but failed over / fell back
  uint64_t unavailable = 0;   // kUnavailable (no live replica / dead rm)
  uint64_t deadline_exceeded = 0;
  uint64_t other_errors = 0;
  uint64_t failovers = 0;     // dead replicas skipped across statements
  uint64_t deaths = 0;        // permanent component deaths drawn
  std::string health;         // final health summary ("rm=dead ...")
};

/// Builds the session's private fabric: `readings` range-sharded 4 ways
/// on ts with R replicas per shard, `events` as a plain row table.
std::unique_ptr<Fabric> BuildSessionFabric(const ChaosParams& params) {
  auto fabric = std::make_unique<Fabric>();
  fabric->shard_scheduler().set_host_threads(1);
  const int64_t rows = static_cast<int64_t>(params.rows);
  {
    auto schema = layout::Schema::Create({
        {"ts", layout::ColumnType::kInt64, 0},
        {"sensor", layout::ColumnType::kInt32, 0},
        {"temp", layout::ColumnType::kInt32, 0},
        {"hum", layout::ColumnType::kInt32, 0},
    });
    auto* table = fabric
                      ->CreateShardedTable(
                          "readings", std::move(*schema), "ts",
                          {.splits = {rows / 4, rows / 2, 3 * rows / 4},
                           .replicas = params.replicas})
                      .value();
    layout::RowBuilder b(&table->schema());
    for (int64_t i = 0; i < rows; ++i) {
      b.Reset();
      b.AddInt64(i)
          .AddInt32(static_cast<int32_t>(i % 64))
          .AddInt32(TempFor(i))
          .AddInt32(static_cast<int32_t>((i * 5 + 3) % 100));
      table->Append(b.Finish());
    }
  }
  {
    auto schema = layout::Schema::Create({
        {"id", layout::ColumnType::kInt64, 0},
        {"kind", layout::ColumnType::kInt32, 0},
        {"amount", layout::ColumnType::kInt32, 0},
    });
    auto* table = fabric->CreateTable("events", std::move(*schema)).value();
    layout::RowBuilder b(&table->schema());
    for (int64_t i = 0; i < rows / 2; ++i) {
      b.Reset();
      b.AddInt64(i)
          .AddInt32(static_cast<int32_t>(i % 8))
          .AddInt32(AmountFor(i));
      table->AppendRow(b.Finish());
    }
  }
  return fabric;
}

/// The session's kill plan: shard replicas die at `kill_p` per serving
/// attempt, the RM transformer at half that. Seeded per session so the
/// sweep exercises many distinct death schedules deterministically.
faults::FaultPlan KillPlanFor(int session, const ChaosParams& params) {
  const uint64_t seed =
      params.kill_seed * 0x9e3779b9u + static_cast<uint64_t>(session) * 7919u;
  const std::string spec =
      "shard.kill:p=" + std::to_string(params.kill_p) +
      ";rm.kill:p=" + std::to_string(params.kill_p / 2) +
      ";seed=" + std::to_string(seed);
  auto plan = faults::FaultPlan::Parse(spec);
  RELFAB_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

/// One statement of the session's mixed stream (same mix as
/// workload_mixed, so fault-free answers match that driver's).
std::string NextStatement(Random* rng, const ChaosParams& params) {
  const int64_t rows = static_cast<int64_t>(params.rows);
  switch (rng->Uniform(10)) {
    case 0:
    case 1:
    case 2:
    case 3: {  // point lookup on the shard key: prunes to one shard
      const int64_t k = static_cast<int64_t>(rng->Uniform(
          static_cast<uint64_t>(rows)));
      return "SELECT COUNT(*), SUM(temp) FROM readings WHERE ts = " +
             std::to_string(k);
    }
    case 4:
    case 5:
    case 6: {  // narrow range analytic: prunes to 1-2 shards
      const int64_t width = rows / 8;
      const int64_t lo = static_cast<int64_t>(
          rng->Uniform(static_cast<uint64_t>(rows - width)));
      return "SELECT AVG(temp), MAX(hum) FROM readings WHERE ts >= " +
             std::to_string(lo) + " AND ts < " + std::to_string(lo + width);
    }
    case 7:
    case 8:  // full fan-out group-by across all shards
      return "SELECT sensor, COUNT(*) FROM readings WHERE hum < 50 "
             "GROUP BY sensor";
    default:  // plain-row analytic on the unsharded table
      return "SELECT kind, SUM(amount) FROM events WHERE amount < 9000 "
             "GROUP BY kind";
  }
}

/// Runs one whole session and fills `out`. Returns total session cycles.
uint64_t RunSession(int session, const ChaosParams& params,
                    SessionOut* out) {
  std::unique_ptr<Fabric> fabric = BuildSessionFabric(params);
  fabric->ArmFaults(KillPlanFor(session, params));
  obs::TelemetryConfig config;
  config.session = "s" + std::to_string(session);
  config.window_cycles = 2'000'000;
  obs::WorkloadTelemetry& telemetry =
      fabric->EnableTelemetry(std::move(config));

  Random rng(0xC0FFEEu + static_cast<uint64_t>(session) * 7919u);
  uint64_t total_cycles = 0;
  for (int s = 0; s < params.statements; ++s) {
    fabric->memory().ResetState();
    const std::string sql = NextStatement(&rng, params);
    exec::QueryOptions options;
    options.max_threads = 4;
    options.deadline_cycles = params.deadline_cycles;
    auto result = fabric->ExecuteSql(sql, options);
    if (result.ok()) {
      ++out->answered;
      total_cycles += result->result.sim_cycles;
    } else if (result.status().code() == StatusCode::kUnavailable) {
      ++out->unavailable;
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      ++out->deadline_exceeded;
    } else {
      // Anything else is a bug in the chaos story, not a failure domain.
      RELFAB_CHECK(false)
          << "session " << session << " statement " << s
          << " failed outside the failure model: "
          << result.status().ToString();
    }
  }

  for (const obs::QueryLogRecord* r : telemetry.query_log().Recent()) {
    out->records.push_back(*r);
    out->failovers += r->shards_failed_over;
    // "Degraded" = answered, but only by failing over to a replica or
    // falling back to a host path (a subset of `answered`).
    if (r->ok && (r->degraded || r->shards_failed_over > 0)) {
      ++out->degraded;
    }
  }
  out->total_cycles = total_cycles;
  out->deaths = fabric->health().deaths().size();
  out->health = fabric->health().ToString();
  return total_cycles;
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;

  ChaosParams params;
  params.rows = FullScale() ? 100000 : 20000;
  params.sessions = FullScale() ? 16 : 8;
  params.statements = FullScale() ? 80 : 40;
  ConsumeNumberFlag(&argc, argv, "--sessions", &params.sessions, 0);
  ConsumeNumberFlag(&argc, argv, "--statements", &params.statements, 0);
  ConsumeNumberFlag(&argc, argv, "--replicas", &params.replicas, 1);
  ConsumeNumberFlag(&argc, argv, "--kill-p", &params.kill_p, 0.0, 1.0);
  ConsumeNumberFlag(&argc, argv, "--kill-seed", &params.kill_seed, 0);
  ConsumeNumberFlag(&argc, argv, "--deadline-cycles",
                    &params.deadline_cycles, 0);
  const std::string qlog_path = ConsumePathFlag(&argc, argv, "--qlog");
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  ResultTable results(
      "Chaos endurance: " + std::to_string(params.sessions) +
      " sessions x " + std::to_string(params.statements) +
      " statements, replicas=" + std::to_string(params.replicas) +
      " shard.kill p=" + std::to_string(params.kill_p));
  std::vector<SessionOut> sessions(
      static_cast<size_t>(params.sessions));
  for (int i = 0; i < params.sessions; ++i) {
    SessionOut* out = &sessions[static_cast<size_t>(i)];
    RegisterSimBenchmark(
        "workload_chaos/session=" + std::to_string(i), &results, "chaos",
        "s" + std::to_string(i),
        [i, &params, out] { return RunSession(i, params, out); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("session");

  // --- session-major merge: deterministic at any --threads value ---
  obs::QueryLog merged_log(
      static_cast<size_t>(params.sessions) *
      static_cast<size_t>(params.statements));
  if (!qlog_path.empty()) {
    auto status = merged_log.OpenSink(qlog_path);
    RELFAB_CHECK(status.ok()) << status.ToString();
  }
  uint64_t answered = 0, degraded = 0, unavailable = 0, deadline = 0;
  uint64_t failovers = 0, deaths = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const SessionOut& s = sessions[i];
    for (const obs::QueryLogRecord& r : s.records) merged_log.Append(r);
    answered += s.answered;
    degraded += s.degraded;
    unavailable += s.unavailable;
    deadline += s.deadline_exceeded;
    failovers += s.failovers;
    deaths += s.deaths;
    if (s.deaths > 0) {
      std::printf("s%zu deaths=%llu health: %s\n", i,
                  static_cast<unsigned long long>(s.deaths),
                  s.health.c_str());
    }
  }
  merged_log.CloseSink();

  const uint64_t statements = static_cast<uint64_t>(params.sessions) *
                              static_cast<uint64_t>(params.statements);
  const double denom = statements > 0 ? static_cast<double>(statements) : 1;
  std::printf(
      "\navailability: answered=%llu/%llu (%.4f) degraded=%llu (%.4f) "
      "unavailable=%llu (%.4f) deadline_exceeded=%llu failovers=%llu "
      "deaths=%llu\n",
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(statements),
      static_cast<double>(answered) / denom,
      static_cast<unsigned long long>(degraded),
      static_cast<double>(degraded) / denom,
      static_cast<unsigned long long>(unavailable),
      static_cast<double>(unavailable) / denom,
      static_cast<unsigned long long>(deadline),
      static_cast<unsigned long long>(failovers),
      static_cast<unsigned long long>(deaths));
  if (!qlog_path.empty()) {
    std::printf("query log: %llu record(s) -> %s\n",
                static_cast<unsigned long long>(merged_log.total()),
                qlog_path.c_str());
  }

  std::map<std::string, std::string> config{
      {"rows", std::to_string(params.rows)},
      {"sessions", std::to_string(params.sessions)},
      {"statements", std::to_string(params.statements)},
      {"replicas", std::to_string(params.replicas)},
      {"kill_p", std::to_string(params.kill_p)},
      {"kill_seed", std::to_string(params.kill_seed)},
      {"deadline_cycles", std::to_string(params.deadline_cycles)},
  };
  AddStandardConfig(&config, args);
  // The report's metrics snapshot carries the availability split, so CI
  // can assert the floor and diff the whole snapshot across host thread
  // counts and simulator modes (the counters are all cycle-domain).
  obs::Registry metrics;
  metrics.counter("workload.statements")->Set(statements);
  metrics.counter("workload.answered")->Set(answered);
  metrics.counter("workload.degraded")->Set(degraded);
  metrics.counter("workload.unavailable")->Set(unavailable);
  metrics.counter("workload.deadline_exceeded")->Set(deadline);
  metrics.counter("workload.failovers")->Set(failovers);
  metrics.counter("workload.deaths")->Set(deaths);
  MaybeWriteReport(args.json_path, "workload_chaos", results, config,
                   &metrics);
  return 0;
}
