// Multi-session mixed workload driver for the telemetry stack: N
// simulated sessions each replay a deterministic stream of mixed
// point/analytic SQL against their own copy of the sharded demo tables
// (range-sharded `readings`, plain-row `events`), with workload
// telemetry enabled — so every statement feeds the cycle-domain
// time-series, the per-backend/per-shard latency digests, the
// structured query log and the flight recorder.
//
// Sessions are the sweep cells; each cell builds a private Fabric from
// its session seed, so per-session results — answers, cycles, digest
// buckets, log records — are bit-identical no matter which host worker
// runs the cell or how many workers there are (--threads 1 vs 4), and
// in both simulator modes. The post-run merge is session-major, keeping
// the merged digests deterministic too; CI pins exactly that.
//
// Flags beyond the standard harness set:
//   --sessions N     number of simulated sessions (default 8)
//   --statements M   statements per session (default 30)
//   --qlog PATH      write the merged query log as JSONL
//
// `--json <report>` embeds the merged digests in the metrics snapshot
// under "digest.*"; summarize a --qlog file with
// tools/analyze_query_log.py.

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
};

/// Everything one session leaves behind for the session-major merge.
struct SessionOut {
  std::unique_ptr<obs::DigestSet> digests;
  std::vector<obs::QueryLogRecord> records;
  uint64_t total_cycles = 0;
  uint64_t degraded = 0;
  uint64_t faults = 0;
  uint64_t flight_dumps = 0;
  uint64_t statements = 0;
};

/// Builds the session's private fabric: `readings` range-sharded 4 ways
/// on ts, `events` as a plain row table.
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
                          {.splits = {rows / 4, rows / 2, 3 * rows / 4}})
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

/// Runs one whole session and fills `out`. Returns total session cycles.
uint64_t RunSession(int session, const WorkloadParams& params,
                    SessionOut* out) {
  std::unique_ptr<Fabric> fabric = BuildSessionFabric(params);
  obs::TelemetryConfig config;
  config.session = "s" + std::to_string(session);
  config.window_cycles = 2'000'000;
  obs::WorkloadTelemetry& telemetry =
      fabric->EnableTelemetry(std::move(config));

  Random rng(0xC0FFEEu + static_cast<uint64_t>(session) * 7919u);
  uint64_t total_cycles = 0;
  for (int s = 0; s < params.statements; ++s) {
    // Fresh per-statement timing, as an interactive session would see.
    fabric->memory().ResetState();
    const std::string sql = NextStatement(&rng, params);
    auto result = fabric->ExecuteSql(sql, {.max_threads = 4});
    RELFAB_CHECK(result.ok())
        << "session " << session << " statement " << s << " failed: "
        << result.status().ToString();
    total_cycles += result->result.sim_cycles;
  }

  out->digests = std::make_unique<obs::DigestSet>();
  out->digests->MergeFrom(telemetry.digests());
  for (const obs::QueryLogRecord* r : telemetry.query_log().Recent()) {
    out->records.push_back(*r);
  }
  out->total_cycles = total_cycles;
  out->degraded = telemetry.degraded_statements();
  out->faults = telemetry.faults_injected();
  out->flight_dumps = telemetry.flight_recorder().dumps();
  out->statements = telemetry.statements();
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
  const std::string qlog_path = ConsumePathFlag(&argc, argv, "--qlog");
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  ResultTable results("Mixed workload: " +
                      std::to_string(params.sessions) + " sessions x " +
                      std::to_string(params.statements) +
                      " mixed point/analytic statements (" +
                      std::to_string(params.rows) + " rows)");
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
  uint64_t degraded = 0, faults = 0, dumps = 0, statements = 0;
  for (const SessionOut& s : sessions) {
    if (s.digests != nullptr) merged.MergeFrom(*s.digests);
    for (const obs::QueryLogRecord& r : s.records) merged_log.Append(r);
    degraded += s.degraded;
    faults += s.faults;
    dumps += s.flight_dumps;
    statements += s.statements;
  }
  merged_log.CloseSink();
  std::printf("\n%s", merged.ToTable().c_str());
  std::printf(
      "workload: statements=%llu degraded=%llu faults=%llu "
      "flight_dumps=%llu\n",
      static_cast<unsigned long long>(statements),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(faults),
      static_cast<unsigned long long>(dumps));
  if (!qlog_path.empty()) {
    std::printf("query log: %llu record(s) -> %s\n",
                static_cast<unsigned long long>(merged_log.total()),
                qlog_path.c_str());
  }

  std::map<std::string, std::string> config{
      {"rows", std::to_string(params.rows)},
      {"sessions", std::to_string(params.sessions)},
      {"statements", std::to_string(params.statements)},
  };
  AddStandardConfig(&config, args);
  // The report's metrics snapshot carries the merged digests (full
  // sketches under "digest.*") plus the workload totals, so digest
  // bit-identity across host thread counts is diffable from two
  // reports alone.
  obs::Registry metrics;
  merged.ExportTo(&metrics);
  metrics.counter("workload.statements")->Set(statements);
  metrics.counter("workload.degraded")->Set(degraded);
  metrics.counter("workload.faults.injected")->Set(faults);
  metrics.counter("workload.flight.dumps")->Set(dumps);
  MaybeWriteReport(args.json_path, "workload_mixed", results, config,
                   &metrics);
  return 0;
}
