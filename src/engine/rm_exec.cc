#include "engine/rm_exec.h"

#include "engine/agg_sink.h"
#include "engine/volcano.h"  // PackCharKey
#include "relmem/ephemeral.h"

namespace relfab::engine {

StatusOr<QueryResult> RmExecEngine::Execute(const QuerySpec& query) {
  RELFAB_RETURN_IF_ERROR(query.Validate(table_->schema()));
  sim::MemorySystem* memory = table_->memory();
  const layout::Schema& schema = table_->schema();

  // Columns the CPU must see: with pushdown the predicate columns stay in
  // the fabric; without it they ride along in the ephemeral group.
  relmem::Geometry geometry;
  if (pushdown_) {
    std::vector<uint32_t> cpu_cols = query.OutputColumns(schema);
    if (cpu_cols.empty()) {
      // Degenerate count-only query: ship the narrowest column (prefer a
      // predicate column, which the fabric reads anyway).
      uint32_t narrowest = 0;
      if (!query.predicates.empty()) {
        narrowest = query.predicates[0].column;
        for (const Predicate& p : query.predicates) {
          if (schema.width(p.column) < schema.width(narrowest)) {
            narrowest = p.column;
          }
        }
      } else {
        for (uint32_t c = 1; c < schema.num_columns(); ++c) {
          if (schema.width(c) < schema.width(narrowest)) narrowest = c;
        }
      }
      cpu_cols.push_back(narrowest);
    }
    geometry.columns = std::move(cpu_cols);
    geometry.predicates = query.predicates;
  } else {
    geometry.columns = query.ReferencedColumns(schema);
    if (geometry.columns.empty()) {
      // Pure COUNT(*): the fabric still needs a stream to count rows;
      // ship the narrowest column.
      uint32_t narrowest = 0;
      for (uint32_t c = 1; c < schema.num_columns(); ++c) {
        if (schema.width(c) < schema.width(narrowest)) narrowest = c;
      }
      geometry.columns.push_back(narrowest);
    }
  }

  // Field index of each source column inside the packed output row.
  std::vector<int32_t> field_of(schema.num_columns(), -1);
  for (size_t f = 0; f < geometry.columns.size(); ++f) {
    field_of[geometry.columns[f]] = static_cast<int32_t>(f);
  }

  // FabricScan covers configuration, chunk production and buffer refills;
  // with pushdown the fabric also filters, so no Filter operator appears
  // and the scan's rows_out drop below its rows_in.
  int op_scan = -1, op_filter = -1;
  const bool cpu_filter = !pushdown_ && !query.predicates.empty();
  if (prof_ != nullptr) {
    op_scan =
        prof_->AddOp(pushdown_ ? "FabricScanFilter" : "FabricScan");
    prof_->op(op_scan).rows_in = table_->num_rows();
    if (cpu_filter) op_filter = prof_->AddOp("Filter");
    prof_->Switch(op_scan);
  }
  AggSink sink(query, schema, memory, cost_, prof_);

  RELFAB_ASSIGN_OR_RETURN(relmem::EphemeralView view,
                          rm_->Configure(*table_, std::move(geometry)));

  QueryResult result;
  result.rows_scanned = table_->num_rows();

  relmem::EphemeralView::Cursor cur(&view);
  const auto numeric = [&](uint32_t col) {
    memory->CpuWork(cost_.rm_value_cycles);
    RELFAB_DCHECK(field_of[col] >= 0);
    return cur.GetDouble(static_cast<uint32_t>(field_of[col]));
  };
  const auto key_of = [&](uint32_t col) {
    memory->CpuWork(cost_.rm_value_cycles);
    RELFAB_DCHECK(field_of[col] >= 0);
    const uint32_t f = static_cast<uint32_t>(field_of[col]);
    if (schema.type(col) == layout::ColumnType::kChar) {
      return PackCharKey(cur.GetChar(f));
    }
    return cur.GetInt(f);
  };

  // Cursor advancement (chunk production, refills) belongs to the scan
  // operator; the body's buffer reads belong to whichever operator
  // consumes them.
  const auto advance = [&] {
    if (prof_ != nullptr) prof_->Switch(op_scan);
    cur.Advance();
  };
  for (; cur.Valid(); advance()) {
    if (prof_ != nullptr) ++prof_->op(op_scan).rows_out;
    if (!pushdown_) {
      if (prof_ != nullptr && cpu_filter) {
        prof_->Switch(op_filter);
        ++prof_->op(op_filter).rows_in;
      }
      bool pass = true;
      for (const Predicate& p : query.predicates) {
        const double v = numeric(p.column);
        memory->CpuWork(cost_.compare_cycles);
        pass = pass && p.Matches(v);
      }
      if (!pass) continue;
      if (prof_ != nullptr && cpu_filter) ++prof_->op(op_filter).rows_out;
    }
    sink.Enter();
    sink.Consume(numeric, key_of);
  }

  if (!view.status().ok()) {
    // The stream died on an injected fabric fault after exhausting its
    // retries. This engine is the pure-RM path: it has no host fallback
    // of its own, so the error propagates (HybridEngine / the executor
    // degrade to the row scan).
    if (prof_ != nullptr) prof_->Finish();
    return view.status();
  }
  sink.Finish(&result);
  result.sim_cycles = memory->ElapsedCycles();
  return result;
}

}  // namespace relfab::engine
