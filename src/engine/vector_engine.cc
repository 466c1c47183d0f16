#include "engine/vector_engine.h"

#include <algorithm>
#include <memory>

#include "engine/agg_sink.h"
#include "engine/volcano.h"  // PackCharKey
#include "sim/memory_system.h"

namespace relfab::engine {

namespace {

/// Charged sequential cursor over one column array. Per value it charges
/// the vectorized load/op CPU cost; memory traffic is charged once per
/// cache-line transition of the column's stream.
class ColumnReader {
 public:
  ColumnReader(const layout::ColumnTable* table, uint32_t col,
               sim::MemorySystem* memory, const CostModel* cost)
      : table_(table),
        col_(col),
        width_(table->schema().width(col)),
        is_char_(table->schema().type(col) == layout::ColumnType::kChar),
        reader_(memory),
        memory_(memory),
        cost_(cost) {}

  double GetNumeric(uint64_t row) {
    Charge(row);
    return table_->GetDouble(col_, row);
  }

  int64_t GetKey(uint64_t row) {
    Charge(row);
    if (is_char_) return PackCharKey(table_->GetChar(col_, row));
    return table_->GetInt(col_, row);
  }

  /// Bulk-charges the dense [0, n) extent of the column as one demand
  /// read and marks the sequential stream consumed through it, so the
  /// per-value Charge calls of a full-column pass skip the simulator
  /// entirely. The dense pass touches exactly the same cache lines in
  /// the same order either way, and the per-value CPU constants still
  /// accrue inside the loop — only the interleaving of commuting
  /// charges changes, which no cache/prefetcher/DRAM decision observes.
  void ChargeDenseExtent(uint64_t n) {
    if (n == 0) return;
    const uint64_t base = table_->ValueAddress(col_, 0);
    const uint64_t end = table_->ValueAddress(col_, n - 1) + width_;
    memory_->Read(base, end - base);
    reader_.NoteConsumedThrough(end - 1);
  }

 private:
  void Charge(uint64_t row) {
    reader_.Read(table_->ValueAddress(col_, row), width_);
    memory_->CpuWork(cost_->vector_value_cycles);
  }

  const layout::ColumnTable* table_;
  uint32_t col_;
  uint32_t width_;
  bool is_char_;
  sim::SequentialReader reader_;
  sim::MemorySystem* memory_;
  const CostModel* cost_;
};

/// Lazily-created per-column readers for one query execution.
class ReaderSet {
 public:
  ReaderSet(const layout::ColumnTable* table, sim::MemorySystem* memory,
            const CostModel* cost)
      : table_(table), memory_(memory), cost_(cost) {
    readers_.resize(table->schema().num_columns());
  }

  ColumnReader& at(uint32_t col) {
    if (!readers_[col]) {
      readers_[col] =
          std::make_unique<ColumnReader>(table_, col, memory_, cost_);
    }
    return *readers_[col];
  }

 private:
  const layout::ColumnTable* table_;
  sim::MemorySystem* memory_;
  const CostModel* cost_;
  std::vector<std::unique_ptr<ColumnReader>> readers_;
};

}  // namespace

StatusOr<QueryResult> VectorEngine::Execute(const QuerySpec& query) {
  RELFAB_RETURN_IF_ERROR(query.Validate(table_->schema()));
  if (mode_ == VectorMode::kColumnAtATime && !query.predicates.empty()) {
    return ExecuteColumnAtATime(query);
  }
  return ExecuteFused(query);
}

StatusOr<QueryResult> VectorEngine::ExecuteFused(const QuerySpec& query) {
  sim::MemorySystem* memory = table_->memory();
  ReaderSet readers(table_, memory, &cost_);

  QueryResult result;
  const uint64_t n = table_->num_rows();
  result.rows_scanned = n;

  // The fused pass evaluates scan + selection in one operator; only the
  // aggregate/projection sink is separable.
  int op_scan = -1;
  if (prof_ != nullptr) {
    op_scan = prof_->AddOp(query.predicates.empty() ? "ColumnScan"
                                                    : "ColumnScanFilter");
    prof_->op(op_scan).rows_in = n;
  }
  AggSink sink(query, table_->schema(), memory, cost_, prof_);

  const uint32_t out_fields =
      static_cast<uint32_t>(query.OutputColumns(table_->schema()).size());
  for (uint64_t batch = 0; batch < n; batch += cost_.batch_rows) {
    if (prof_ != nullptr) prof_->Switch(op_scan);
    memory->CpuWork(cost_.batch_overhead_cycles);
    const uint64_t batch_end = std::min<uint64_t>(n, batch + cost_.batch_rows);
    for (uint64_t row = batch; row < batch_end; ++row) {
      if (prof_ != nullptr) prof_->Switch(op_scan);
      // Vectorized predicate evaluation: all conjuncts computed (no
      // per-tuple short circuit), selection folded into a mask.
      bool pass = true;
      for (const Predicate& p : query.predicates) {
        const double v = readers.at(p.column).GetNumeric(row);
        memory->CpuWork(cost_.compare_cycles);
        pass = pass && p.Matches(v);
      }
      if (!pass) continue;
      if (prof_ != nullptr) ++prof_->op(op_scan).rows_out;
      sink.Enter();
      // Tuple reconstruction: stitch the output fields of this position
      // from `out_fields` separate arrays.
      if (out_fields > 1) {
        memory->CpuWork(cost_.reconstruct_field_cycles * out_fields);
      }
      sink.Consume(
          [&](uint32_t col) { return readers.at(col).GetNumeric(row); },
          [&](uint32_t col) { return readers.at(col).GetKey(row); });
    }
  }

  sink.Finish(&result);
  result.sim_cycles = memory->ElapsedCycles();
  return result;
}

StatusOr<QueryResult> VectorEngine::ExecuteColumnAtATime(
    const QuerySpec& query) {
  sim::MemorySystem* memory = table_->memory();
  ReaderSet readers(table_, memory, &cost_);

  QueryResult result;
  const uint64_t n = table_->num_rows();
  result.rows_scanned = n;

  // Selection: one full sequential pass per predicate column, refining a
  // selection vector. Each pass keeps exactly one live stream, so this
  // mode does not suffer prefetch-stream thrash during selection.
  std::vector<uint64_t> positions;
  for (size_t pi = 0; pi < query.predicates.size(); ++pi) {
    const Predicate& p = query.predicates[pi];
    ColumnReader& reader = readers.at(p.column);
    std::vector<uint64_t> next;
    const uint64_t in_count = pi == 0 ? n : positions.size();
    int op_select = -1;
    if (prof_ != nullptr) {
      // Each predicate pass is its own operator: one full sequential
      // column stream refining the selection vector.
      op_select = prof_->AddOp(
          "Select(" + table_->schema().column(p.column).name + ")");
      prof_->op(op_select).rows_in = in_count;
      prof_->Switch(op_select);
    }
    memory->CpuWork(cost_.batch_overhead_cycles *
                    (static_cast<double>(in_count) / cost_.batch_rows + 1));
    if (pi == 0) {
      // The first predicate pass streams the whole column densely:
      // charge its memory traffic as one batched read up front (the
      // per-value loop below then only pays CPU constants).
      reader.ChargeDenseExtent(n);
      next.reserve(n / 2);
      for (uint64_t row = 0; row < n; ++row) {
        const double v = reader.GetNumeric(row);
        memory->CpuWork(cost_.compare_cycles);
        if (p.Matches(v)) next.push_back(row);
      }
    } else {
      next.reserve(positions.size());
      for (uint64_t row : positions) {
        const double v = reader.GetNumeric(row);
        memory->CpuWork(cost_.compare_cycles);
        if (p.Matches(v)) next.push_back(row);
      }
    }
    positions = std::move(next);
    if (prof_ != nullptr) prof_->op(op_select).rows_out = positions.size();
  }

  // Aggregation/projection pass over qualifying positions; the output
  // columns advance in lockstep here, like the fused engine.
  AggSink sink(query, table_->schema(), memory, cost_, prof_);
  if (prof_ != nullptr) {
    prof_->op(sink.op()).rows_in = positions.size();
    prof_->Switch(sink.op());
  }
  memory->CpuWork(cost_.batch_overhead_cycles *
                  (static_cast<double>(positions.size()) / cost_.batch_rows +
                   1));
  const uint32_t out_fields =
      static_cast<uint32_t>(query.OutputColumns(table_->schema()).size());
  for (uint64_t row : positions) {
    if (out_fields > 1) {
      memory->CpuWork(cost_.reconstruct_field_cycles * out_fields);
    }
    sink.Consume(
        [&](uint32_t col) { return readers.at(col).GetNumeric(row); },
        [&](uint32_t col) { return readers.at(col).GetKey(row); });
  }

  sink.Finish(&result);
  result.sim_cycles = memory->ElapsedCycles();
  return result;
}

}  // namespace relfab::engine
