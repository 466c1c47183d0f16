#include "query/executor.h"

#include "engine/hybrid.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "exec/shard_scheduler.h"
#include "sim/memory_system.h"

namespace relfab::query {
namespace {

/// One "rm.kill" opportunity for a statement that is about to use the
/// RM transformer. True when the engine is unusable — already dead, or
/// the kill draw fired just now (every serving attempt is one draw, so
/// the death schedule is a pure function of the workload). Runs in
/// single-threaded dispatch code only.
bool RmUnavailable(const exec::ExecContext& ctx) {
  if (ctx.health == nullptr) return false;
  if (!ctx.health->alive("rm")) return true;
  const uint64_t now = ctx.tracer != nullptr ? ctx.tracer->Now() : 0;
  return ctx.health->DrawKill("rm.kill", "rm", now);
}

/// Circuit-breaker report for the RM transformer after a dispatch.
void ReportRmOutcome(const exec::ExecContext& ctx, const Status& status) {
  if (ctx.health == nullptr) return;
  if (status.ok()) {
    ctx.health->ReportSuccess("rm");
  } else if (faults::IsFabricFault(status)) {
    ctx.health->ReportFailure("rm", status.ToString(),
                              ctx.tracer != nullptr ? ctx.tracer->Now() : 0);
  }
}

}  // namespace

StatusOr<engine::QueryResult> Executor::Execute(
    const Plan& plan, const exec::ExecContext& ctx) const {
  RELFAB_ASSIGN_OR_RETURN(TableEntry entry, catalog_->Lookup(plan.table));

  if (plan.shards.enabled) {
    if (entry.sharded == nullptr) {
      return Status::FailedPrecondition(
          "shard-fanout plan but table '" + plan.table + "' is not sharded");
    }
    if (ctx.scheduler == nullptr) {
      return Status::FailedPrecondition(
          "shard-fanout plan requires an exec::ShardScheduler in the "
          "ExecContext");
    }
    Backend backend = plan.backend;
    if (backend == Backend::kRelationalMemory && RmUnavailable(ctx)) {
      // The RM transformer died before (or at) dispatch: the whole
      // fan-out degrades to per-shard host row scans. The planner avoids
      // a dead RM for subsequent statements; this covers the statement
      // that drew the kill.
      backend = Backend::kRow;
      if (ctx.injector != nullptr) ctx.injector->NoteFallback("query.RM");
      if (ctx.recorder != nullptr) {
        ctx.recorder->Log("query",
                          "rm transformer dead: shard fan-out degraded to ROW",
                          ctx.tracer != nullptr ? ctx.tracer->Now() : 0);
      }
    }
    if (ctx.profile != nullptr) {
      ctx.profile->backend =
          "SHARD(" + std::string(BackendToString(backend)) + ")";
      ctx.profile->table = plan.table;
      if (backend != plan.backend) {
        ctx.profile->fallback = "rm transformer dead; fan-out ran on ROW";
      }
    }
    exec::ShardScheduler::Request req;
    req.table = entry.sharded;
    req.table_name = plan.table;
    req.spec = &plan.spec;
    req.backend = backend;
    req.shard_ids = &plan.shards.shard_ids;
    req.ship = &plan.shards.ship;
    req.cost = cost_;
    return ctx.scheduler->Execute(req, ctx);
  }

  obs::Span span(ctx.tracer, "query.execute", "query");
  span.AddArg("backend", std::string(BackendToString(plan.backend)));
  span.AddArg("table", plan.table);

  if (ctx.profile == nullptr) {
    auto result = Dispatch(plan, entry, ctx, nullptr);
    if (result.ok()) span.AddArg("rows_matched", result->rows_matched);
    return result;
  }

  ctx.profile->backend = std::string(BackendToString(plan.backend));
  ctx.profile->table = plan.table;
  sim::MemorySystem* memory =
      plan.backend == Backend::kColumn && entry.columns != nullptr
          ? entry.columns->memory()
          : entry.rows->memory();
  obs::OpProfiler prof(ctx.profile, [memory] { return memory->Sample(); });
  auto result = Dispatch(plan, entry, ctx, &prof);
  prof.Finish();  // engines already Finish(); this closes error paths
  if (result.ok()) {
    ctx.profile->total_cycles = result->sim_cycles;
    span.AddArg("rows_matched", result->rows_matched);
  }
  return result;
}

StatusOr<engine::QueryResult> Executor::FallbackToRowScan(
    const Plan& plan, const TableEntry& entry, const exec::ExecContext& ctx,
    const Status& cause, obs::OpProfiler* prof) const {
  // Graceful degradation (the Polynesia/Farview rule: the offload path
  // must degrade to the host path when the accelerator is unavailable):
  // the fabric plan died on an I/O-class fault after its retries, so the
  // query re-runs start-to-finish on the host row engine. The failed
  // attempt's simulated cycles stay on the clock, and the rerun starts
  // from the query's beginning because the failed engine's partial
  // aggregate state is not recoverable.
  if (ctx.injector != nullptr) {
    ctx.injector->NoteFallback("query." +
                               std::string(BackendToString(plan.backend)));
  }
  if (prof != nullptr) {
    prof->Switch(-1);
    prof->NoteFallback(cause.ToString() + "; query re-run on ROW backend");
  }
  if (ctx.recorder != nullptr) {
    ctx.recorder->Log("query",
                      "degraded to ROW: " + cause.ToString(),
                      ctx.tracer != nullptr ? ctx.tracer->Now() : 0);
  }
  obs::Span span(ctx.tracer, "query.fallback", "query");
  span.AddArg("cause", cause.ToString());
  engine::VolcanoEngine eng(entry.rows, cost_);
  eng.set_profiler(prof);
  return eng.Execute(plan.spec);
}

StatusOr<engine::QueryResult> Executor::Dispatch(const Plan& plan,
                                                 const TableEntry& entry,
                                                 const exec::ExecContext& ctx,
                                                 obs::OpProfiler* prof) const {
  switch (plan.backend) {
    case Backend::kRow: {
      engine::VolcanoEngine eng(entry.rows, cost_);
      eng.set_profiler(prof);
      return eng.Execute(plan.spec);
    }
    case Backend::kColumn: {
      if (entry.columns == nullptr) {
        return Status::FailedPrecondition(
            "plan chose COL but table '" + plan.table +
            "' has no materialized columnar copy");
      }
      engine::VectorEngine eng(entry.columns, cost_);
      eng.set_profiler(prof);
      return eng.Execute(plan.spec);
    }
    case Backend::kRelationalMemory: {
      if (RmUnavailable(ctx)) {
        return FallbackToRowScan(
            plan, entry, ctx,
            Status::Unavailable("rm transformer dead (killed at rm.kill)"),
            prof);
      }
      engine::RmExecEngine eng(entry.rows, rm_, cost_);
      eng.set_profiler(prof);
      StatusOr<engine::QueryResult> result = eng.Execute(plan.spec);
      ReportRmOutcome(ctx, result.ok() ? Status::Ok() : result.status());
      if (result.ok() || !faults::IsFabricFault(result.status())) {
        return result;
      }
      return FallbackToRowScan(plan, entry, ctx, result.status(), prof);
    }
    case Backend::kHybrid: {
      if (RmUnavailable(ctx)) {
        return FallbackToRowScan(
            plan, entry, ctx,
            Status::Unavailable("rm transformer dead (killed at rm.kill)"),
            prof);
      }
      engine::HybridEngine eng(entry.rows, rm_, cost_);
      eng.set_profiler(prof);
      eng.set_fault_injector(ctx.injector);
      StatusOr<engine::QueryResult> result = eng.Execute(plan.spec);
      ReportRmOutcome(ctx, result.ok() ? Status::Ok() : result.status());
      if (result.ok() || !faults::IsFabricFault(result.status())) {
        return result;
      }
      // The hybrid engine degrades internally; this only triggers when
      // even its internal recovery could not finish (e.g. a fault on the
      // delegated pure-RM plan that it chose not to retry).
      return FallbackToRowScan(plan, entry, ctx, result.status(), prof);
    }
    case Backend::kIndex: {
      if (entry.key_index == nullptr) {
        return Status::FailedPrecondition(
            "plan chose INDEX but table '" + plan.table + "' has no index");
      }
      const engine::Predicate* point = nullptr;
      for (const engine::Predicate& p : plan.spec.predicates) {
        if (p.column == entry.key_index_column &&
            p.op == relmem::CompareOp::kEq) {
          point = &p;
          break;
        }
      }
      if (point == nullptr) {
        return Status::FailedPrecondition(
            "plan chose INDEX without an equality predicate on the "
            "indexed column");
      }
      int op_lookup = -1;
      if (prof != nullptr) op_lookup = prof->AddOp("IndexLookup");
      if (prof != nullptr) prof->Switch(op_lookup);
      const std::vector<uint64_t> candidates =
          entry.key_index->Lookup(point->int_operand);
      if (prof != nullptr) {
        prof->op(op_lookup).rows_in = 1;  // one probed key
        prof->op(op_lookup).rows_out = candidates.size();
        prof->Switch(-1);
      }
      engine::VolcanoEngine eng(entry.rows, cost_);
      eng.set_profiler(prof);
      return eng.ExecuteOnRowIds(plan.spec, candidates);
    }
  }
  return Status::Internal("unknown backend");
}

}  // namespace relfab::query
