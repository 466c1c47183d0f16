#ifndef RELFAB_OBS_QUERY_LOG_H_
#define RELFAB_OBS_QUERY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace relfab::obs {

/// The one per-statement record: the Fabric builds it after every
/// statement (from the plan, the result, the status and the statement's
/// profile) and WorkloadTelemetry::RecordStatement stamps and logs it.
/// Every field is emitted on every record (only `error` is conditional)
/// so downstream tools can rely on a fixed schema; ValidateRecord() is
/// the single source of truth for that schema and is mirrored by
/// tools/analyze_query_log.py.
struct QueryLogRecord {
  uint64_t seq = 0;           // assigned by QueryLog::Append
  std::string session;        // logical session id ("shell", "s3", ...)
  std::string sql;
  std::string table;
  std::string backend;        // chosen plan backend ("ROWWISE", ...)
  bool ok = true;             // JSON "status": "ok" | "error"
  std::string error;          // present iff !ok
  /// StatusCode name of the statement outcome ("ok", "unavailable",
  /// "deadline_exceeded", ...) — finer-grained than `ok` so
  /// availability tooling can separate failure domains from plain
  /// errors.
  std::string status_code = "ok";
  uint64_t cycles = 0;        // simulated cycles for this statement
  uint64_t end_cycles = 0;    // cumulative workload clock at completion
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint32_t shards_total = 0;   // 0 = unsharded table
  uint32_t shards_scanned = 0;
  uint32_t shards_pruned = 0;
  uint32_t shards_failed_over = 0;  // dead replicas skipped (failovers)
  /// Distributed fabric (all zero outside a configured cluster): payload
  /// bytes shipped node → coordinator and the per-shard wire-format split.
  uint64_t net_bytes = 0;
  uint32_t shards_ship_rows = 0;
  uint32_t shards_ship_aggs = 0;
  bool degraded = false;
  std::string degradation;     // cause note, empty when !degraded
  uint64_t faults_injected = 0;  // deltas over this statement
  uint64_t fault_retries = 0;
  uint64_t fault_fallbacks = 0;

  Json ToJson() const;
};

/// In-memory ring of recent statement records plus an optional JSONL
/// sink: with a sink open every Append writes (and flushes) one JSON
/// line, so the log survives crashes mid-workload. Single-threaded like
/// the rest of the per-session telemetry — sessions each own a QueryLog
/// and merge session-major afterwards.
class QueryLog {
 public:
  explicit QueryLog(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;
  ~QueryLog() { CloseSink(); }

  /// Opens (appends to) a JSONL sink; closes any previous one.
  Status OpenSink(const std::string& path);
  void CloseSink();
  bool has_sink() const { return sink_ != nullptr; }
  const std::string& sink_path() const { return sink_path_; }

  /// Stamps the record's seq (append order, from 0) and records it.
  void Append(QueryLogRecord record);

  /// Ring contents, oldest first (at most `capacity` records).
  std::vector<const QueryLogRecord*> Recent() const;

  uint64_t total() const { return total_; }
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }

  /// Schema check for one JSONL record; the error names the offending
  /// field. Used by tests and mirrored in tools/analyze_query_log.py.
  static Status ValidateRecord(const Json& record);

  /// Writes the ring as JSONL to `path` (the shell's `\qlog <file>`).
  Status WriteJsonl(const std::string& path) const;

  /// Human-readable recent-statement table (the `\qlog` view).
  std::string ToTable(size_t last_n = 16) const;

 private:
  size_t capacity_;
  std::vector<QueryLogRecord> ring_;
  size_t head_ = 0;  // next slot to overwrite once full
  uint64_t total_ = 0;
  std::FILE* sink_ = nullptr;
  std::string sink_path_;
};

}  // namespace relfab::obs

#endif  // RELFAB_OBS_QUERY_LOG_H_
