#include "obs/telemetry.h"

#include <sstream>

#include "common/format.h"

namespace relfab::obs {
namespace {

constexpr size_t kTimeSeriesWindows = 64;  // windows retained

}  // namespace

WorkloadTelemetry::WorkloadTelemetry(TelemetryConfig config)
    : config_(std::move(config)),
      timeseries_(config_.window_cycles, kTimeSeriesWindows) {
  // The bundle's own exported counters are always tracked; the Fabric
  // adds its own series on top.
  timeseries_.Track("telemetry.statements");
  timeseries_.Track("telemetry.cycles");
  timeseries_.Track("telemetry.errors");
  timeseries_.Track("telemetry.degraded");
  timeseries_.Track("telemetry.faults.injected");
}

void WorkloadTelemetry::RecordStatement(Statement statement) {
  workload_cycles_ += statement.cycles;
  ++statements_;
  if (!statement.ok) ++errors_;
  if (statement.degraded) ++degraded_statements_;
  faults_injected_ += statement.faults_injected;
  fault_fallbacks_ += statement.fault_fallbacks;

  digests_.Observe("query.cycles", static_cast<double>(statement.cycles));
  if (!statement.backend.empty()) {
    digests_.Observe("query." + statement.backend + ".cycles",
                     static_cast<double>(statement.cycles));
  }

  std::string incident;
  if (statement.degraded) {
    incident = "degraded: " + statement.degradation;
  } else if (statement.faults_injected > 0) {
    incident = "faults: " + std::to_string(statement.faults_injected) +
               " injected";
  }
  statement.session = config_.session;
  statement.end_cycles = workload_cycles_;
  query_log_.Append(std::move(statement));

  if (!incident.empty()) {
    const Status dumped =
        flight_recorder_.TriggerDump(incident, workload_cycles_);
    if (!dumped.ok()) ++dump_failures_;
  }
}

void WorkloadTelemetry::ExportTo(Registry* registry) const {
  registry->counter("telemetry.statements")->Set(statements_);
  registry->counter("telemetry.cycles")->Set(workload_cycles_);
  registry->counter("telemetry.errors")->Set(errors_);
  registry->counter("telemetry.degraded")->Set(degraded_statements_);
  registry->counter("telemetry.faults.injected")->Set(faults_injected_);
  registry->counter("telemetry.faults.fallbacks")->Set(fault_fallbacks_);
  registry->counter("telemetry.flight.dumps")
      ->Set(flight_recorder_.dumps());
}

Json WorkloadTelemetry::ToJson() const {
  Json doc = Json::Object();
  doc.Set("session", config_.session);
  doc.Set("workload_cycles", workload_cycles_);
  doc.Set("statements", statements_);
  doc.Set("errors", errors_);
  doc.Set("degraded", degraded_statements_);
  doc.Set("faults_injected", faults_injected_);
  doc.Set("fault_fallbacks", fault_fallbacks_);
  doc.Set("flight_recorder_dumps", flight_recorder_.dumps());
  doc.Set("timeseries", timeseries_.ToJson());
  doc.Set("digests", digests_.ToJson());
  return doc;
}

std::string WorkloadTelemetry::ToTable() const {
  std::ostringstream os;
  os << "=== workload [" << config_.session << "] ===\n"
     << "  statements=" << FormatCount(statements_)
     << " errors=" << FormatCount(errors_)
     << " degraded=" << FormatCount(degraded_statements_)
     << " faults=" << FormatCount(faults_injected_)
     << " dumps=" << FormatCount(flight_recorder_.dumps())
     << " cycles=" << FormatCount(workload_cycles_) << '\n';
  os << timeseries_.ToTable();
  os << digests_.ToTable();
  return os.str();
}

}  // namespace relfab::obs
