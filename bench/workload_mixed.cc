// Multi-session workload driver for the telemetry and failure-domain
// stacks: N simulated sessions each replay a deterministic stream of
// mixed point/analytic SQL against their own copy of the sharded demo
// tables (range-sharded `readings` with R replicas per shard, plain-row
// `events`), with workload telemetry enabled — so every statement feeds
// the cycle-domain time-series, the per-backend/per-shard latency
// digests, the structured query log and the flight recorder. With
// --kill-p > 0 each session also arms a `shard.kill` / `rm.kill` plan
// that permanently kills components mid-run, and the availability split
// tells how many statements were answered, answered degraded (failover /
// host fallback), or structurally unavailable; each session with deaths
// prints the health state it ended in.
//
// Sessions are the sweep cells; each cell builds a private Fabric from
// its session seed (and arms a session-seeded kill plan), so
// per-session results — answers, cycles, death schedules, digest
// buckets, log records — are bit-identical no matter which host worker
// runs the cell or how many workers there are (--threads 1 vs 4), and in
// both simulator modes. The post-run merge is session-major, keeping the
// merged digests deterministic too; CI pins exactly that, and asserts an
// availability floor with replicas >= 2.
//
// A failed statement is an outcome only when its cause is armed:
// kUnavailable when the session's health registry has kill rules
// (--kill-p > 0, or a ".kill" rule in $RELFAB_FAULTS) and
// kDeadlineExceeded when --deadline-cycles > 0. Any other failure aborts
// the run.
//
// Flags beyond the standard harness set:
//   --sessions N         simulated sessions (default 8)
//   --statements M       statements per session (default 30)
//   --replicas R         timing-alias replicas per shard (default 1)
//   --kill-p P           per-attempt shard.kill probability; rm.kill is
//                        armed at P/2 (default 0: no kill plan, so a
//                        $RELFAB_FAULTS plan is the one that runs)
//   --kill-seed S        base seed for the kill plans (default 1)
//   --deadline-cycles D  per-statement cycle-domain deadline (0 = off)
//   --qlog PATH          write the merged query log as JSONL
//
// `--replicas 2 --kill-p 0.004 --statements 40` is the kill run CI
// soaks. `--json <report>` embeds the merged digests in the metrics
// snapshot under "digest.*" and the availability split under
// "workload.*"; summarize a --qlog file with tools/analyze_query_log.py
// (kill outcomes land in "status_code").

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/relational_fabric.h"

namespace relfab::bench {
namespace {

/// Row content is a pure function of the key so every session holds
/// identical data and point-query answers are host-checkable.
int32_t TempFor(int64_t ts) { return static_cast<int32_t>((ts * 13 + 7) % 500); }
int32_t AmountFor(int64_t i) {
  return static_cast<int32_t>((i * 31 + 11) % 10000);
}

struct WorkloadParams {
  uint64_t rows = 20000;
  int sessions = 8;
  int statements = 30;
  uint32_t replicas = 1;
  double kill_p = 0;
  uint64_t kill_seed = 1;
  uint64_t deadline_cycles = 0;
};

/// The "workload.*" counters of the report, in print order. Every
/// session fills its own counts under these names.
constexpr const char* kCounters[] = {
    "statements", "answered", "degraded", "unavailable", "deadline_exceeded",
    "failovers",  "deaths",   "faults.injected", "flight.dumps"};

/// Everything one session leaves behind for the session-major merge.
struct SessionOut {
  std::unique_ptr<obs::DigestSet> digests;
  std::vector<obs::QueryLogRecord> records;
  std::map<std::string, uint64_t> counts;  // by kCounters name
  std::string health;  // final health summary ("rm=dead ...")
};

/// Builds the session's private fabric: `readings` range-sharded 4 ways
/// on ts with R replicas per shard, `events` as a plain row table.
std::unique_ptr<Fabric> BuildSessionFabric(const WorkloadParams& params) {
  auto fabric = std::make_unique<Fabric>();
  // One host thread per scheduler: the sweep harness supplies the
  // process-level parallelism, and host threads never change answers or
  // cycles anyway (shard_exec_test pins that).
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
faults::FaultPlan KillPlanFor(int session, const WorkloadParams& params) {
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

/// One statement of the session's mixed stream, chosen by the session's
/// private deterministic RNG.
std::string NextStatement(Random* rng, const WorkloadParams& params) {
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

/// Runs one whole session and fills `out`. Returns the simulated cycles
/// of the session's answered statements.
uint64_t RunSession(int session, const WorkloadParams& params,
                    SessionOut* out) {
  std::unique_ptr<Fabric> fabric = BuildSessionFabric(params);
  if (params.kill_p > 0) fabric->ArmFaults(KillPlanFor(session, params));
  obs::TelemetryConfig config;
  config.session = "s" + std::to_string(session);
  config.window_cycles = 2'000'000;
  obs::WorkloadTelemetry& telemetry =
      fabric->EnableTelemetry(std::move(config));

  std::map<std::string, uint64_t>& counts = out->counts;
  Random rng(0xC0FFEEu + static_cast<uint64_t>(session) * 7919u);
  uint64_t total_cycles = 0;
  for (int s = 0; s < params.statements; ++s) {
    // Fresh per-statement timing, as an interactive session would see.
    fabric->memory().ResetState();
    const std::string sql = NextStatement(&rng, params);
    auto result = fabric->ExecuteSql(
        sql, {.max_threads = 4, .deadline_cycles = params.deadline_cycles});
    const StatusCode code = result.status().code();
    if (result.ok()) {
      ++counts["answered"];
      total_cycles += result->result.sim_cycles;
    } else if (code == StatusCode::kUnavailable && fabric->health().armed()) {
      ++counts["unavailable"];
    } else if (code == StatusCode::kDeadlineExceeded &&
               params.deadline_cycles > 0) {
      ++counts["deadline_exceeded"];
    } else {
      RELFAB_CHECK(false) << "session " << session << " statement " << s
                          << " failed outside the failure model: "
                          << result.status().ToString();
    }
  }

  out->digests = std::make_unique<obs::DigestSet>();
  out->digests->MergeFrom(telemetry.digests());
  for (const obs::QueryLogRecord* r : telemetry.query_log().Recent()) {
    out->records.push_back(*r);
    counts["failovers"] += r->shards_failed_over;
    // "Degraded" = answered, but only by failing over to a replica or
    // falling back to a host path (a subset of `answered`).
    if (r->ok && (r->degraded || r->shards_failed_over > 0)) {
      ++counts["degraded"];
    }
  }
  counts["statements"] = telemetry.statements();
  counts["deaths"] = fabric->health().deaths().size();
  counts["faults.injected"] = telemetry.faults_injected();
  counts["flight.dumps"] = telemetry.flight_recorder().dumps();
  out->health = fabric->health().ToString();
  return total_cycles;
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;

  WorkloadParams params;
  params.rows = FullScale() ? 100000 : 20000;
  params.sessions = FullScale() ? 16 : 8;
  params.statements = FullScale() ? 60 : 30;
  ConsumeNumberFlag(&argc, argv, "--sessions", &params.sessions, 0);
  ConsumeNumberFlag(&argc, argv, "--statements", &params.statements, 0);
  ConsumeNumberFlag(&argc, argv, "--replicas", &params.replicas, 1);
  ConsumeNumberFlag(&argc, argv, "--kill-p", &params.kill_p, 0.0, 1.0);
  ConsumeNumberFlag(&argc, argv, "--kill-seed", &params.kill_seed, 0);
  ConsumeNumberFlag(&argc, argv, "--deadline-cycles",
                    &params.deadline_cycles, 0);
  const std::string qlog_path = ConsumePathFlag(&argc, argv, "--qlog");
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  ResultTable results("Mixed workload: " +
                      std::to_string(params.sessions) + " sessions x " +
                      std::to_string(params.statements) +
                      " mixed point/analytic statements (" +
                      std::to_string(params.rows) + " rows, replicas=" +
                      std::to_string(params.replicas) +
                      ", kill_p=" + std::to_string(params.kill_p) + ")");
  std::vector<SessionOut> sessions(
      static_cast<size_t>(params.sessions));
  for (int i = 0; i < params.sessions; ++i) {
    // Each session is one cell writing only its own pre-sized slot, so
    // the sweep's worker pool needs no extra synchronization here.
    SessionOut* out = &sessions[static_cast<size_t>(i)];
    RegisterSimBenchmark(
        "workload_mixed/session=" + std::to_string(i), &results, "mixed",
        "s" + std::to_string(i),
        [i, &params, out] { return RunSession(i, params, out); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("session");

  // --- session-major merge: deterministic at any --threads value ---
  obs::DigestSet merged;
  obs::QueryLog merged_log(
      static_cast<size_t>(params.sessions) *
      static_cast<size_t>(params.statements));
  if (!qlog_path.empty()) {
    auto status = merged_log.OpenSink(qlog_path);
    RELFAB_CHECK(status.ok()) << status.ToString();
  }
  std::map<std::string, uint64_t> totals;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const SessionOut& s = sessions[i];
    if (s.digests != nullptr) merged.MergeFrom(*s.digests);
    for (const obs::QueryLogRecord& r : s.records) merged_log.Append(r);
    for (const auto& [name, n] : s.counts) totals[name] += n;
    if (auto it = s.counts.find("deaths");
        it != s.counts.end() && it->second > 0) {
      std::printf("s%zu deaths=%llu health: %s\n", i,
                  static_cast<unsigned long long>(it->second),
                  s.health.c_str());
    }
  }
  merged_log.CloseSink();
  std::printf("\n%s", merged.ToTable().c_str());

  // The report's metrics snapshot carries the merged digests (full
  // sketches under "digest.*") plus the workload totals and the
  // availability split, so CI can assert the floor and diff the whole
  // snapshot across host thread counts and simulator modes (every
  // counter is cycle-domain).
  obs::Registry metrics;
  merged.ExportTo(&metrics);
  std::printf("workload:");
  for (const char* name : kCounters) {
    metrics.counter(std::string("workload.") + name)->Set(totals[name]);
    std::printf(" %s=%llu", name,
                static_cast<unsigned long long>(totals[name]));
  }
  std::printf("\n");
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
  MaybeWriteReport(args.json_path, "workload_mixed", results, config,
                   &metrics);
  return 0;
}
