#include "engine/hybrid.h"

#include <algorithm>

#include "engine/rm_exec.h"
#include "engine/volcano.h"
#include "relmem/ephemeral.h"

namespace relfab::engine {

void HybridEngine::RecordFallback(const Status& cause,
                                  const char* where) const {
  if (injector_ != nullptr) injector_->NoteFallback(where);
  if (prof_ != nullptr) {
    prof_->NoteFallback(cause.ToString() +
                        "; remaining work completed on host row path");
  }
}

void HybridEngine::HostSelectRemainder(
    const QuerySpec& query, uint64_t resume_row,
    std::vector<uint64_t>* qualifying) const {
  sim::MemorySystem* memory = table_->memory();
  const layout::Schema& schema = table_->schema();
  const uint64_t num_rows = table_->num_rows();
  const uint64_t row_bytes = table_->row_bytes();
  int op_host = -1;
  if (prof_ != nullptr) {
    op_host = prof_->AddOp("HostSelectResume");
    prof_->op(op_host).rows_in = num_rows - resume_row;
    prof_->Switch(op_host);
  }
  const size_t found_before = qualifying->size();
  for (uint64_t row = resume_row; row < num_rows; ++row) {
    memory->CpuWork(cost_.volcano_next_cycles);
    // Tuple-at-a-time: materialize the whole row (the data movement the
    // fabric would have avoided — degradation trades cycles, never the
    // answer), then read the predicate fields from the L1-resident
    // tuple.
    if (row_bytes > 0) memory->Read(table_->RowAddress(row), row_bytes);
    bool pass = true;
    for (const Predicate& p : query.predicates) {
      memory->ReadL1Resident(table_->FieldAddress(row, p.column),
                             schema.width(p.column));
      memory->CpuWork(cost_.volcano_field_cycles + cost_.compare_cycles);
      const double v = table_->GetDouble(row, p.column);
      pass = pass && p.Matches(v);
    }
    if (pass) {
      qualifying->push_back(row);
      memory->CpuWork(cost_.arith_cycles);  // row-id list append
    }
  }
  if (prof_ != nullptr) {
    prof_->op(op_host).rows_out = qualifying->size() - found_before;
  }
}

StatusOr<QueryResult> HybridEngine::Execute(const QuerySpec& query) {
  RELFAB_RETURN_IF_ERROR(query.Validate(table_->schema()));
  if (query.predicates.empty()) {
    RmExecEngine rm_engine(table_, rm_, cost_);
    rm_engine.set_profiler(prof_);
    StatusOr<QueryResult> result = rm_engine.Execute(query);
    if (result.ok() || !faults::IsFabricFault(result.status())) {
      return result;
    }
    // The delegated RM plan died on a fabric fault: rerun the whole
    // query on the host row engine (the RM attempt's cycles stay on the
    // clock — the time was really spent).
    RecordFallback(result.status(), "hybrid.rm");
    VolcanoEngine row_engine(table_, cost_);
    row_engine.set_profiler(prof_);
    return row_engine.Execute(query);
  }
  sim::MemorySystem* memory = table_->memory();
  const layout::Schema& schema = table_->schema();

  // --- phase 1: column-at-a-time selection over an ephemeral view of
  // the predicate columns only ---
  relmem::Geometry geometry;
  {
    std::vector<uint32_t> cols;
    for (const Predicate& p : query.predicates) cols.push_back(p.column);
    std::sort(cols.begin(), cols.end(), [&schema](uint32_t a, uint32_t b) {
      return schema.offset(a) < schema.offset(b);
    });
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    geometry.columns = std::move(cols);
  }
  std::vector<int32_t> field_of(schema.num_columns(), -1);
  for (size_t f = 0; f < geometry.columns.size(); ++f) {
    field_of[geometry.columns[f]] = static_cast<int32_t>(f);
  }
  // Phase 1 is one operator: configure + stream + predicate evaluation.
  int op_select = -1;
  if (prof_ != nullptr) {
    op_select = prof_->AddOp("FabricSelect");
    prof_->op(op_select).rows_in = table_->num_rows();
    prof_->Switch(op_select);
  }
  StatusOr<relmem::EphemeralView> view_or =
      rm_->Configure(*table_, std::move(geometry));
  std::vector<uint64_t> qualifying;
  if (!view_or.ok()) {
    if (!faults::IsFabricFault(view_or.status())) return view_or.status();
    // The fabric would not even accept the descriptor: run the whole
    // selection on the host.
    RecordFallback(view_or.status(), "hybrid.select");
    HostSelectRemainder(query, 0, &qualifying);
  } else {
    relmem::EphemeralView& view = *view_or;
    {
      relmem::EphemeralView::Cursor cur(&view);
      for (; cur.Valid(); cur.Advance()) {
        bool pass = true;
        for (const Predicate& p : query.predicates) {
          memory->CpuWork(cost_.rm_value_cycles + cost_.compare_cycles);
          const double v =
              cur.GetDouble(static_cast<uint32_t>(field_of[p.column]));
          pass = pass && p.Matches(v);
        }
        if (pass) {
          qualifying.push_back(cur.row_index());
          memory->CpuWork(cost_.arith_cycles);  // row-id list append
        }
      }
    }
    if (prof_ != nullptr) prof_->op(op_select).rows_out = qualifying.size();
    if (!view.status().ok()) {
      if (!faults::IsFabricFault(view.status())) return view.status();
      // Production died mid-stream after exhausting its retries; the
      // stream stopped exactly at input_row(), so the host picks up the
      // remaining source rows and the combined row-id list is identical
      // to a fault-free run.
      RecordFallback(view.status(), "hybrid.select");
      HostSelectRemainder(query, view.input_row(), &qualifying);
    }
  }

  // --- phase 2: row-at-a-time aggregation over the qualifying rows,
  // reading the output columns straight from the base rows ---
  if (prof_ != nullptr) {
    // Hand the meter over; phase 2's operators attribute themselves.
    prof_->Switch(-1);
  }
  QuerySpec payload;
  payload.exprs = query.exprs;
  payload.aggregates = query.aggregates;
  payload.group_by = query.group_by;
  payload.projection = query.projection;
  VolcanoEngine row_engine(table_, cost_);
  row_engine.set_profiler(prof_);
  RELFAB_ASSIGN_OR_RETURN(QueryResult result,
                          row_engine.ExecuteOnRowIds(payload, qualifying));
  // Report scan semantics of the whole query, not just phase 2.
  result.rows_scanned = table_->num_rows();
  result.rows_matched = qualifying.size();
  result.sim_cycles = memory->ElapsedCycles();
  return result;
}

}  // namespace relfab::engine
