// Shared pieces of the repository benchmark: host clocks, the in-memory
// span log of the traced run, the SQL client that replays a statement
// stage by stage, the plain-loop reference evaluator, and the per-layer
// counters every workload fills.
//
// Nothing here reaches inside src/: spans wrap calls into the public API
// of each layer, from the benchmark's own code.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/relational_fabric.h"

namespace perfbench {

/// Host CPU time of the whole process (every thread), in nanoseconds.
int64_t CpuNs();
/// Host monotonic wall time, in nanoseconds.
int64_t WallNs();

/// 64-bit FNV-1a, used to fingerprint answers, cycles and log records.
class Hasher {
 public:
  Hasher& Bytes(const void* data, size_t n);
  Hasher& U64(uint64_t v) { return Bytes(&v, sizeof v); }
  Hasher& F64(double v) { return Bytes(&v, sizeof v); }
  Hasher& Str(std::string_view s) {
    return U64(s.size()).Bytes(s.data(), s.size());
  }
  Hasher& Answer(const relfab::engine::QueryResult& r);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Spans of the traced run. A span's parent is the innermost span open
/// when it began; spans of one op share the op id. Times are process CPU
/// nanoseconds, so a span around a shard fan-out also covers the pool
/// threads it started. Self time (a span minus the time its children
/// cover) is summed per span name as spans close; the spans themselves
/// are kept in memory for the first `record_ops` ops and written out
/// when the run ends, which bounds memory on long runs.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t op;
    int32_t parent;  // index into the recorded spans, -1 for an op's root
  };
  struct SelfTime {
    const char* name;
    double ns = 0;
    uint64_t calls = 0;
  };

  explicit SpanLog(uint64_t record_ops) : record_ops_(record_ops) {}

  void Open(const char* name, uint64_t op);
  void Close();

  /// Self time per span name, in first-seen order.
  const std::vector<SelfTime>& self_times() const { return self_; }

  /// Writes the recorded spans as CSV (name,start_ns,end_ns,op,parent).
  bool WriteCsv(const std::string& path) const;

 private:
  struct Active {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t recorded;  // index into recorded_, -1 past record_ops_
  };

  uint64_t record_ops_;
  std::vector<Active> stack_;
  std::vector<Span> recorded_;
  std::vector<SelfTime> self_;
};

/// Opens a span for its lifetime; does nothing when the log is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op) : log_(log) {
    if (log_ != nullptr) log_->Open(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Exits with the status message when set-up fails: set-up of the
/// benchmark's own fixed inputs has no failure to recover from.
void Must(const relfab::Status& s);

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Nearest-rank quantile of `values` (copied, then partially sorted).
double Quantile(std::vector<double> values, double q);

/// Reference answer from plain loops over the base rows: no simulator,
/// no engine. `rows` restricts the scan to candidate rows (an index
/// probe); null scans the whole table. rows_scanned is left to the
/// caller, since it depends on the access path the plan chose.
relfab::engine::QueryResult ReferenceAnswer(
    const relfab::layout::RowTable& table,
    const relfab::engine::QuerySpec& spec,
    const std::vector<uint64_t>* rows = nullptr);

/// The same over the shards of a sharded table, in shard order.
relfab::engine::QueryResult ReferenceAnswer(
    const relfab::shard::ShardedTable& table,
    const relfab::engine::QuerySpec& spec);

/// Per-layer counters over the guarded prefix of a run (the ops whose
/// counts must repeat exactly for a seed), plus host-time totals over
/// every op of the traced run.
struct LayerCounters {
  // query: unsharded statements
  std::vector<double> q_errors;
  uint64_t backend[5] = {0, 0, 0, 0, 0};  // exec::Backend order
  uint64_t statements = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  // exec: sharded statements
  uint64_t sharded = 0;
  uint64_t shards_scanned = 0;
  uint64_t shards_total = 0;
  // sim: the fabric's memory system around unsharded statements
  uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
  uint64_t prefetch_covered = 0, prefetch_uncovered = 0;
  uint64_t dram_bytes = 0;
  double cpu_cycles = 0, elapsed_cycles = 0;
  // relmem: ops that ran on the RM transformer
  uint64_t rm_ops = 0, rows_packed = 0, rows_parsed = 0, refills = 0;
  // mvcc
  uint64_t commits = 0, aborts = 0;
  double versions_per_key_sum = 0;
  uint64_t versions_samples = 0;
  // net: statements on the cluster fabric
  uint64_t cluster_statements = 0, net_bytes = 0, net_messages = 0;
  uint64_t ship_rows = 0, ship_aggs = 0;

  // Over every op of the traced run (host-time ratios).
  uint64_t sim_lines = 0, fastpath_lines = 0;

  /// Metrics that must repeat exactly for a seed.
  void Deterministic(Metrics* out) const;
};

/// Runs SQL on one fabric and accounts for it. Untraced, a statement is
/// one Fabric::ExecuteSql call. Traced, the same statement goes through
/// the public stages ExecuteSql is made of — Parser::Parse,
/// Planner::MakePlan, Executor::Execute and the telemetry epilogue —
/// each inside a span, on a parser, planner and executor built over the
/// fabric's own catalog, RM engine, health registry and topology.
class SqlClient {
 public:
  explicit SqlClient(relfab::Fabric* fabric);

  /// Executes `sql`; `execute_span` names the Executor::Execute span.
  relfab::StatusOr<relfab::Fabric::SqlResult> Execute(
      std::string_view sql, const relfab::exec::QueryOptions& options,
      SpanLog* spans, uint64_t op, const char* execute_span = "exec.execute");

  /// Reads the counters Account diffs against; call before the statement,
  /// outside the timed region.
  void Mark();

  /// Folds one finished statement into `counters` and returns its
  /// fingerprint: the answer and the simulated cycles. For `guarded` ops
  /// it also adds the counts that must repeat exactly and, with
  /// telemetry on, fingerprints the query-log record the statement
  /// appended.
  uint64_t Account(const relfab::Fabric::SqlResult& r, bool guarded,
                   LayerCounters* counters);

 private:
  relfab::Fabric* fabric_;
  relfab::query::Parser parser_;
  relfab::query::Planner planner_;
  relfab::query::Executor executor_;
  // Counter readings before the statement, for per-statement deltas.
  uint64_t fastpath_before_ = 0;
  uint64_t packed_before_ = 0, parsed_before_ = 0;
  uint64_t net_bytes_before_ = 0, net_messages_before_ = 0;
  uint64_t ship_rows_before_ = 0, ship_aggs_before_ = 0;
};

/// One workload of the benchmark. The harness calls Setup and
/// ComputeReferences before the clock, then for each op Prepare
/// (untimed), Run (the timed region) and Check (untimed).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the data and builds every rig the ops need, including the
  /// warm-up that builds lazily created ones.
  virtual void Setup() = 0;
  /// Computes the reference answers of the op stream.
  virtual void ComputeReferences() = 0;
  /// Ops whose deterministic metrics are guarded; every run makes at
  /// least this many.
  virtual uint64_t guarded_ops() const = 0;
  /// Untimed work before op `i`: resetting simulated timing, and fresh
  /// set-up where a workload starts a new episode. Returns the CPU ns
  /// spent on set-up work, if any.
  virtual int64_t Prepare(uint64_t i) = 0;
  /// Op `i` itself. With `spans`, it goes stage by stage through the
  /// public calls, each in a span.
  virtual void Run(uint64_t i, SpanLog* spans) = 0;
  /// Checks op `i`'s output against its reference; false on a wrong
  /// answer or a non-OK status. Sets the op's simulated cycles and
  /// fingerprint.
  virtual bool Check(uint64_t i, uint64_t* sim_cycles,
                     uint64_t* fingerprint) = 0;
  /// End-of-run checks over state the ops left behind.
  virtual bool Finish() = 0;

  const LayerCounters& counters() const { return counters_; }

 protected:
  LayerCounters counters_;
};

std::unique_ptr<Workload> MakeOlapTpch(uint64_t seed);
std::unique_ptr<Workload> MakeOltpHtap(uint64_t seed);
std::unique_ptr<Workload> MakeShardFanout(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
