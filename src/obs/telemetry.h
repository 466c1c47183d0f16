#ifndef RELFAB_OBS_TELEMETRY_H_
#define RELFAB_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "obs/digest.h"
#include "obs/flight_recorder.h"
#include "obs/query_log.h"
#include "obs/registry.h"
#include "obs/timeseries.h"

namespace relfab::obs {

/// Knobs for WorkloadTelemetry; the defaults suit an interactive shell
/// session or a bench session of a few hundred statements.
struct TelemetryConfig {
  std::string session = "main";       // session id stamped on log records
  uint64_t window_cycles = 5'000'000;  // time-series window width
};

/// relfab::obs v2 bundle: the per-session workload telemetry state —
/// cycle-domain time-series, latency digests, structured query log and
/// flight recorder — behind one object so the Fabric can wire all of it
/// with a single pointer. Everything runs on the cumulative *workload
/// clock* (the running sum of per-statement simulated cycles), which is
/// monotonic across the per-statement sim resets and never touches wall
/// time; with the bundle absent (null) the fabric's behavior — answers
/// and cycles — is bit-identical to having no telemetry at all.
class WorkloadTelemetry {
 public:
  /// Everything the Fabric reports about one finished statement: the
  /// query-log record itself, before `session`, `end_cycles` and `seq`
  /// are stamped.
  using Statement = QueryLogRecord;

  explicit WorkloadTelemetry(TelemetryConfig config = {});

  /// Advances the workload clock by the statement's cycles, feeds the
  /// per-backend digests, stamps the record's session and end_cycles and
  /// appends it to the query log, and — when the statement degraded or
  /// faults fired — triggers a flight-recorder dump.
  void RecordStatement(Statement statement);

  /// Samples the time-series from `registry` at the current workload
  /// clock. Call after RecordStatement with the refreshed fabric
  /// registry (Fabric::CollectMetrics exports the "telemetry.*"
  /// counters into it first).
  void Sample(const Registry& registry) {
    timeseries_.Sample(registry, workload_cycles_);
  }

  /// Exports the bundle's own counters ("telemetry.statements", ...)
  /// into `registry`.
  void ExportTo(Registry* registry) const;

  uint64_t workload_cycles() const { return workload_cycles_; }
  uint64_t statements() const { return statements_; }
  uint64_t errors() const { return errors_; }
  uint64_t degraded_statements() const { return degraded_statements_; }
  uint64_t faults_injected() const { return faults_injected_; }
  uint64_t dump_failures() const { return dump_failures_; }

  TimeSeries& timeseries() { return timeseries_; }
  DigestSet& digests() { return digests_; }
  QueryLog& query_log() { return query_log_; }
  FlightRecorder& flight_recorder() { return flight_recorder_; }
  const TelemetryConfig& config() const { return config_; }

  /// Full JSON export: {"workload_cycles": ..., "statements": ...,
  /// "timeseries": ..., "digests": ..., "flight_recorder_dumps": ...}.
  Json ToJson() const;

  /// The `\top` view: headline counters, recent time-series windows and
  /// the latency-digest table.
  std::string ToTable() const;

 private:
  TelemetryConfig config_;
  TimeSeries timeseries_;
  DigestSet digests_;
  QueryLog query_log_;
  FlightRecorder flight_recorder_;

  uint64_t workload_cycles_ = 0;
  uint64_t statements_ = 0;
  uint64_t errors_ = 0;
  uint64_t degraded_statements_ = 0;
  uint64_t faults_injected_ = 0;
  uint64_t fault_fallbacks_ = 0;
  uint64_t dump_failures_ = 0;
};

}  // namespace relfab::obs

#endif  // RELFAB_OBS_TELEMETRY_H_
