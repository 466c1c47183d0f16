#include "relstorage/rs_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace relfab::relstorage {

void RsEngine::EmitScanEvent(const char* name, const ScanResult& result) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  obs::Tracer::Event event;
  event.name = name;
  event.category = "relstorage";
  // The SSD runs in its own clock domain; scans render back-to-back on
  // the dedicated storage track, each anchored at the engine's own
  // monotonic storage clock rather than mapped onto the CPU timeline.
  event.start_cycles = static_cast<uint64_t>(storage_now_);
  event.duration_cycles = static_cast<uint64_t>(result.cycles);
  event.depth = 0;  // the storage track has no CPU-span nesting
  event.track = track_;
  event.args.emplace_back("rows_out", std::to_string(result.rows_out));
  event.args.emplace_back("pages_sensed",
                          std::to_string(result.pages_sensed));
  event.args.emplace_back("pages_shipped",
                          std::to_string(result.pages_shipped));
  tracer_->Emit(std::move(event));
  storage_now_ += result.cycles;
}

Status RsEngine::ValidateScanTypes(const StorageTable& table,
                                   const relmem::Geometry& geometry) {
  const layout::Schema& schema = table.schema();
  for (uint32_t c : geometry.columns) {
    if (schema.type(c) == layout::ColumnType::kChar) {
      return Status::InvalidArgument(
          "char projection through RS not supported (column " +
          std::to_string(c) + ")");
    }
  }
  return Status::Ok();
}

void RsEngine::RunScan(const StorageTable& table,
                       const relmem::Geometry& geometry, ScanResult* result,
                       double* decode_cost_total, uint64_t* values_touched) {
  const layout::Schema& schema = table.schema();
  const std::vector<uint32_t> source = geometry.SourceColumns(schema);
  result->out_row_bytes = geometry.OutputRowBytes(schema);
  const uint64_t end =
      std::min<uint64_t>(geometry.end_row, table.num_rows());
  result->data.reserve((end - geometry.begin_row) * result->out_row_bytes /
                       4);
  *decode_cost_total = 0;
  *values_touched = 0;

  double decode_per_row = 0;
  for (uint32_t c : source) {
    if (table.IsCompressed(c)) {
      decode_per_row += table.codec(c)->decode_cost_per_value();
    }
  }

  for (uint64_t row = geometry.begin_row; row < end; ++row) {
    *values_touched += source.size();
    *decode_cost_total += decode_per_row;
    bool pass = true;
    for (const relmem::HwPredicate& p : geometry.predicates) {
      if (!p.Matches(table.GetDouble(row, p.column))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++result->rows_out;
    for (uint32_t c : geometry.columns) {
      // Output carries decoded fixed-width values.
      switch (schema.type(c)) {
        case layout::ColumnType::kInt32:
        case layout::ColumnType::kDate: {
          const int32_t v = static_cast<int32_t>(table.GetInt(row, c));
          const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
          result->data.insert(result->data.end(), p, p + 4);
          break;
        }
        case layout::ColumnType::kInt64: {
          const int64_t v = table.GetInt(row, c);
          const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
          result->data.insert(result->data.end(), p, p + 8);
          break;
        }
        case layout::ColumnType::kDouble: {
          const double v = table.GetDouble(row, c);
          const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
          result->data.insert(result->data.end(), p, p + 8);
          break;
        }
        case layout::ColumnType::kChar:
          // relfab-lint: allow(data-check) ValidateScanTypes rejects char projections with Status before this path runs
          RELFAB_CHECK(false) << "char projection through RS not supported";
      }
    }
  }
}

StatusOr<ScanResult> RsEngine::NearStorageScan(
    const StorageTable& table, const relmem::Geometry& geometry) {
  RELFAB_RETURN_IF_ERROR(geometry.Validate(table.schema()));
  RELFAB_RETURN_IF_ERROR(ValidateScanTypes(table, geometry));
  ScanResult result;
  double decode_cost = 0;
  uint64_t values = 0;
  RunScan(table, geometry, &result, &decode_cost, &values);

  const SsdParams& p = ssd_->params();
  result.pages_sensed = table.PagesFor(geometry.SourceColumns(table.schema()));
  RELFAB_ASSIGN_OR_RETURN(const double read_cycles,
                          ssd_->ReadInternalChecked(result.pages_sensed));
  const double logic_cycles =
      static_cast<double>(values) * p.storage_logic_cycles_per_value +
      decode_cost;
  result.pages_shipped = static_cast<uint64_t>(
      std::ceil(static_cast<double>(result.rows_out) * result.out_row_bytes /
                p.page_bytes));
  RELFAB_ASSIGN_OR_RETURN(const double ship_cycles,
                          ssd_->ShipToHostChecked(result.pages_shipped));
  // Sense, in-storage processing and shipping form a pipeline.
  result.cycles = std::max({read_cycles, logic_cycles, ship_cycles});
  ++near_scans_;
  near_pages_sensed_ += result.pages_sensed;
  near_pages_shipped_ += result.pages_shipped;
  rows_out_ += result.rows_out;
  EmitScanEvent("rs.near_scan", result);
  return result;
}

StatusOr<ScanResult> RsEngine::HostScan(const StorageTable& table,
                                        const relmem::Geometry& geometry) {
  return HostScanImpl(table, geometry, /*faultable=*/true);
}

StatusOr<ScanResult> RsEngine::HostScanImpl(const StorageTable& table,
                                            const relmem::Geometry& geometry,
                                            bool faultable) {
  RELFAB_RETURN_IF_ERROR(geometry.Validate(table.schema()));
  RELFAB_RETURN_IF_ERROR(ValidateScanTypes(table, geometry));
  ScanResult result;
  double decode_cost = 0;
  uint64_t values = 0;
  RunScan(table, geometry, &result, &decode_cost, &values);

  const SsdParams& p = ssd_->params();
  result.pages_sensed = table.TotalPages();
  result.pages_shipped = table.TotalPages();
  double read_cycles, ship_cycles;
  if (faultable) {
    RELFAB_ASSIGN_OR_RETURN(read_cycles,
                            ssd_->ReadInternalChecked(result.pages_sensed));
    RELFAB_ASSIGN_OR_RETURN(ship_cycles,
                            ssd_->ShipToHostChecked(result.pages_shipped));
  } else {
    // Last-resort path: plain conservative reads outside the injected
    // fault model, so degradation terminates (like the query engine's
    // Volcano fallback, whose DRAM path can stall but never error).
    read_cycles = ssd_->ReadInternal(result.pages_sensed);
    ship_cycles = ssd_->ShipToHost(result.pages_shipped);
  }
  // The host decodes and filters in software as pages arrive.
  const double cpu_cycles =
      static_cast<double>(values) * p.host_cpu_cycles_per_value + decode_cost;
  result.cycles = std::max({read_cycles, ship_cycles, cpu_cycles});
  ++host_scans_;
  host_pages_shipped_ += result.pages_shipped;
  rows_out_ += result.rows_out;
  EmitScanEvent("rs.host_scan", result);
  return result;
}

StatusOr<ScanResult> RsEngine::Scan(const StorageTable& table,
                                    const relmem::Geometry& geometry) {
  if (health_ != nullptr) {
    // One kill opportunity per serving attempt: once the device dies it
    // stays dead for the session and every scan degrades to the host
    // path (answers identical, data movement and cycles change).
    const uint64_t now = static_cast<uint64_t>(storage_now_);
    if (!health_->alive("rs") || health_->DrawKill("rs.kill", "rs", now)) {
      ++fallbacks_;
      if (injector_ != nullptr) injector_->NoteFallback("rs.near_scan");
      return HostScanImpl(table, geometry, /*faultable=*/false);
    }
  }
  StatusOr<ScanResult> near = NearStorageScan(table, geometry);
  if (health_ != nullptr) {
    if (near.ok()) {
      health_->ReportSuccess("rs");
    } else if (faults::IsFabricFault(near.status())) {
      health_->ReportFailure("rs", near.status().ToString(),
                             static_cast<uint64_t>(storage_now_));
    }
  }
  if (near.ok() || !faults::IsFabricFault(near.status())) return near;
  // The device path died after exhausting its retries. Degrade to the
  // host baseline: ship everything and process on the CPU. The answer is
  // identical; only the data movement and cycles change.
  ++fallbacks_;
  if (injector_ != nullptr) injector_->NoteFallback("rs.near_scan");
  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::Tracer::Event event;
    event.name = "rs.fallback";
    event.category = "relstorage";
    event.start_cycles = static_cast<uint64_t>(storage_now_);
    event.track = track_;
    event.args.emplace_back("cause", near.status().ToString());
    tracer_->Emit(std::move(event));
  }
  return HostScanImpl(table, geometry, /*faultable=*/false);
}

}  // namespace relfab::relstorage
