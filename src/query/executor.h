#ifndef RELFAB_QUERY_EXECUTOR_H_
#define RELFAB_QUERY_EXECUTOR_H_

#include "common/statusor.h"
#include "engine/cost_model.h"
#include "engine/query.h"
#include "exec/exec_context.h"
#include "faults/injector.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "query/catalog.h"
#include "query/planner.h"
#include "relmem/rm_engine.h"

namespace relfab::query {

/// Runs a Plan on the chosen backend. Stateless apart from its wiring;
/// engines are constructed per call (they are thin). All per-query
/// collaborators — tracer, fault injector, profile sink, shard
/// scheduler, options — arrive through exec::ExecContext rather than
/// setters, so one Executor serves concurrent callers with different
/// observability wiring.
class Executor {
 public:
  Executor(const Catalog* catalog, relmem::RmEngine* rm,
           engine::CostModel cost_model)
      : catalog_(catalog), rm_(rm), cost_(cost_model) {
    // relfab-lint: allow(data-check) wiring-time null check: a programming error, never data-dependent
    RELFAB_CHECK(catalog != nullptr && rm != nullptr);
  }

  /// Executes the plan with the given context. A non-null `ctx.profile`
  /// gets the statement-level fields (backend, table, total cycles,
  /// degradation note; shard fan-outs add shard and net counts); only
  /// under `ctx.options.analyze` does the chosen engine also attribute
  /// simulator meters to its operators. When `ctx.tracer` is attached,
  /// the run is wrapped in a "query.execute" span. Shard fan-out plans
  /// require `ctx.scheduler`.
  StatusOr<engine::QueryResult> Execute(const Plan& plan,
                                        const exec::ExecContext& ctx) const;

  /// Convenience: executes with a default (unwired) context.
  StatusOr<engine::QueryResult> Execute(const Plan& plan) const {
    return Execute(plan, exec::ExecContext{});
  }

 private:
  StatusOr<engine::QueryResult> Dispatch(const Plan& plan,
                                         const TableEntry& entry,
                                         const exec::ExecContext& ctx,
                                         obs::OpProfiler* prof) const;

  /// Completes a fabric-failed query on the host row engine.
  StatusOr<engine::QueryResult> FallbackToRowScan(const Plan& plan,
                                                  const TableEntry& entry,
                                                  const exec::ExecContext& ctx,
                                                  const Status& cause,
                                                  obs::OpProfiler* prof) const;

  const Catalog* catalog_;
  relmem::RmEngine* rm_;
  engine::CostModel cost_;
};

}  // namespace relfab::query

#endif  // RELFAB_QUERY_EXECUTOR_H_
