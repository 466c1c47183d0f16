#ifndef RELFAB_ENGINE_AGG_SINK_H_
#define RELFAB_ENGINE_AGG_SINK_H_

#include <map>
#include <vector>

#include "engine/cost_model.h"
#include "engine/query.h"
#include "layout/schema.h"
#include "obs/query_profile.h"
#include "sim/memory_system.h"

namespace relfab::engine {

/// The Aggregate/Project operator every engine feeds its matched rows
/// into. It owns what happens to a matched row — the projection
/// checksum, the group lookup, the aggregate expressions and updates —
/// and their CPU charges, so every layout pays the same per-row compute
/// and ROW, COL and RM differ only in data movement (Figs. 5-7). The
/// engines keep their scans, filters and access-path charges: they hand
/// Consume two callables that read one field of the current row, and
/// charge that read, the way that engine does.
///
/// Per matched row the sink charges, in order: for a projection, each
/// column's read then arith_cycles; otherwise the group-key reads then
/// group_hash_cycles (grouped queries only), then per aggregate its
/// expression's reads and arith_cycles x OpCount (COUNT(*) has none) and
/// agg_update_cycles. Every charge is its own CpuWork call: merging two
/// would change double rounding and so the simulated cycles.
class AggSink {
 public:
  /// Registers the sink operator with `prof` (null disables profiling).
  AggSink(const QuerySpec& query, const layout::Schema& schema,
          sim::MemorySystem* memory, const CostModel& cost,
          obs::OpProfiler* prof)
      : query_(query),
        schema_(schema),
        memory_(memory),
        cost_(cost),
        prof_(prof),
        flat_(query.aggregates.size()) {
    if (prof_ != nullptr) {
      op_ = prof_->AddOp(query.aggregates.empty() ? "Project" : "Aggregate");
    }
    expr_cycles_.reserve(query.aggregates.size());
    for (const AggSpec& a : query.aggregates) {
      expr_cycles_.push_back(
          a.expr >= 0 ? cost.arith_cycles * query.exprs.OpCount(a.expr) : 0);
    }
  }

  /// Profiler handle of the sink operator (-1 without a profiler).
  int op() const { return op_; }

  /// Makes the sink the active operator for one more input row.
  void Enter() {
    if (prof_ == nullptr) return;
    prof_->Switch(op_);
    ++prof_->op(op_).rows_in;
  }

  /// Consumes one matched row. `numeric(col)` returns column `col` of the
  /// row as a double; `key(col)` returns it as a group-key value (char
  /// columns packed by PackCharKey).
  template <typename NumericFn, typename KeyFn>
  void Consume(NumericFn&& numeric, KeyFn&& key) {
    ++rows_;
    if (query_.aggregates.empty()) {
      for (uint32_t col : query_.projection) {
        checksum_ += schema_.type(col) == layout::ColumnType::kChar
                         ? static_cast<double>(key(col) & 0xffff)
                         : numeric(col);
        memory_->CpuWork(cost_.arith_cycles);
      }
      return;
    }
    std::vector<AggState>* states = &flat_;
    if (!query_.group_by.empty()) {
      GroupKey group;
      group.size = static_cast<uint32_t>(query_.group_by.size());
      for (uint32_t i = 0; i < group.size; ++i) {
        group.values[i] = key(query_.group_by[i]);
      }
      memory_->CpuWork(cost_.group_hash_cycles);
      auto [it, fresh] = groups_.try_emplace(group);
      if (fresh) it->second.resize(query_.aggregates.size());
      states = &it->second;
    }
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      double v = 0;
      if (query_.aggregates[a].expr >= 0) {
        v = query_.exprs.Eval(query_.aggregates[a].expr, numeric);
        memory_->CpuWork(expr_cycles_[a]);
      }
      (*states)[a].Update(v);
      memory_->CpuWork(cost_.agg_update_cycles);
    }
  }

  /// Closes the profile and records the sink's rows_out (every row of a
  /// projection, one per group, or one), then writes rows_matched and
  /// the final values into `result`. AggState::Final gives MIN, MAX and
  /// AVG over no rows as 0.
  void Finish(QueryResult* result) {
    const bool grouped = !query_.group_by.empty();
    if (prof_ != nullptr) {
      prof_->Finish();
      uint64_t out = rows_;
      if (!query_.aggregates.empty()) out = grouped ? groups_.size() : 1;
      prof_->op(op_).rows_out = out;
    }
    result->rows_matched = rows_;
    result->projection_checksum = checksum_;
    if (query_.aggregates.empty()) return;
    if (!grouped) {
      result->aggregates = Finals(flat_);
      return;
    }
    for (const auto& [group, states] : groups_) {
      result->groups.emplace_back(group, Finals(states));
    }
  }

 private:
  std::vector<double> Finals(const std::vector<AggState>& states) const {
    std::vector<double> out(states.size());
    for (size_t a = 0; a < states.size(); ++a) {
      out[a] = states[a].Final(query_.aggregates[a].func);
    }
    return out;
  }

  const QuerySpec& query_;
  const layout::Schema& schema_;
  sim::MemorySystem* memory_;
  const CostModel& cost_;
  obs::OpProfiler* prof_;
  int op_ = -1;
  /// arith_cycles x OpCount of each aggregate's expression.
  std::vector<double> expr_cycles_;
  uint64_t rows_ = 0;
  double checksum_ = 0;
  std::vector<AggState> flat_;
  std::map<GroupKey, std::vector<AggState>> groups_;
};

}  // namespace relfab::engine

#endif  // RELFAB_ENGINE_AGG_SINK_H_
