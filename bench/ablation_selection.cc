// Ablation A4 — pushing selection into the fabric (paper §IV-B). With
// the predicate evaluated in hardware, only qualifying rows' column
// groups cross the memory hierarchy and the CPU skips predicate
// evaluation entirely. Note the bottleneck structure: the fabric must
// gather the source rows either way, so when production is the limit
// (narrow outputs, low selectivity) pushdown shows no end-to-end gain —
// its win appears exactly where the CPU-side consume path is the
// bottleneck, and it additionally removes the cache pollution of
// non-qualifying rows.
//
// This bench doubles as the CI degradation smoke: with $RELFAB_FAULTS
// armed, cells that die on a fabric fault transparently re-run on the
// host row engine, and the JSON report carries per-cell answer gauges
// ("result.<cell>.{sum,rows}") plus summed "faults.*" counters so
// tools/check_degradation.py can assert fallbacks happened without
// changing any answer.

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "engine/rm_exec.h"
#include "engine/volcano.h"
#include "faults/injector.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  explicit Rig(uint64_t rows) {
    layout::Schema schema =
        layout::Schema::Uniform(16, layout::ColumnType::kInt32);
    table = std::make_unique<layout::RowTable>(std::move(schema), &memory,
                                               rows);
    layout::RowBuilder b(&table->schema());
    Random rng(1);
    for (uint64_t r = 0; r < rows; ++r) {
      b.Reset();
      for (int c = 0; c < 16; ++c) {
        b.AddInt32(static_cast<int32_t>(rng.Uniform(1000)));
      }
      table->AppendRow(b.Finish());
    }
    rm = std::make_unique<relmem::RmEngine>(&memory);
    StatusOr<std::unique_ptr<faults::FaultInjector>> env =
        faults::FaultInjector::FromEnv();
    if (!env.ok()) {
      std::fprintf(stderr, "warning: %s (running unarmed)\n",
                   env.status().ToString().c_str());
    } else {
      injector = std::move(*env);
    }
    if (injector != nullptr) rm->set_fault_injector(injector.get());
  }

  /// Call at the head of every cell: cycles must depend only on the cell,
  /// not on which worker ran the previous cells. ResetStreams re-seeds
  /// the per-site PRNGs and re-arming the memory re-draws the ECC
  /// countdown from the fresh stream.
  void ResetForCell() {
    memory.ResetState();
    if (injector != nullptr) {
      injector->ResetStreams();
      memory.set_fault_injector(injector.get());
    }
  }

  sim::MemorySystem memory;
  std::unique_ptr<layout::RowTable> table;
  std::unique_ptr<relmem::RmEngine> rm;
  std::unique_ptr<faults::FaultInjector> injector;
};

// sum of 4 columns where c15 < permille.
engine::QuerySpec Query(int permille) {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < 4; ++c) {
    spec.aggregates.push_back(
        {engine::AggFunc::kSum, spec.exprs.Column(c)});
  }
  spec.predicates.push_back(
      engine::Predicate::Int(15, relmem::CompareOp::kLt, permille));
  return spec;
}

/// Per-cell answers, keyed by cell name; written under a mutex because
/// workers finish cells concurrently.
struct Answers {
  Mutex mu;
  std::map<std::string, engine::QueryResult> by_cell RELFAB_GUARDED_BY(mu);

  void Record(const std::string& cell, engine::QueryResult result) {
    MutexLock lock(&mu);
    by_cell[cell] = std::move(result);
  }
};

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 21) : (1ull << 19);
  PerWorker<Rig> rigs([rows] { return std::make_unique<Rig>(rows); });
  ResultTable results(
      "Ablation A4: selection in software vs pushed into the fabric (" +
      std::to_string(rows) + " rows, 4-column sum)");
  Answers answers;

  // Executes the cell's query on the RM path; on a fabric fault (armed
  // runs only) degrades to the host row engine — the answer is the same,
  // the cycles tell the story of the failed attempts plus the rerun.
  const auto run_cell = [&answers](Rig& rig, const std::string& cell,
                                   const engine::QuerySpec& query,
                                   bool pushdown) -> uint64_t {
    rig.ResetForCell();
    engine::RmExecEngine eng(rig.table.get(), rig.rm.get(),
                             engine::CostModel::A53Defaults(), pushdown);
    StatusOr<engine::QueryResult> result = eng.Execute(query);
    if (!result.ok() && faults::IsFabricFault(result.status())) {
      if (rig.injector != nullptr) {
        rig.injector->NoteFallback("bench.selection");
      }
      engine::VolcanoEngine host(rig.table.get());
      result = host.Execute(query);
    }
    RELFAB_CHECK(result.ok()) << cell << ": " << result.status().ToString();
    answers.Record(cell, *result);
    return rig.memory.ElapsedCycles();
  };

  for (int permille : {1, 10, 100, 300, 500, 800, 1000}) {
    const std::string x = std::to_string(permille / 10.0) + "%";
    const std::string sw_cell = "selection/sw/" + x;
    RegisterSimBenchmark(sw_cell, &results, "RM software", x,
                         [&rigs, &run_cell, sw_cell, permille] {
                           return run_cell(rigs.Get(), sw_cell,
                                           Query(permille),
                                           /*pushdown=*/false);
                         });
    const std::string hw_cell = "selection/hw/" + x;
    RegisterSimBenchmark(hw_cell, &results, "RM pushdown", x,
                         [&rigs, &run_cell, hw_cell, permille] {
                           return run_cell(rigs.Get(), hw_cell,
                                           Query(permille),
                                           /*pushdown=*/true);
                         });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("selectivity");
  results.PrintSpeedupVs("selectivity", "RM software");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);

  // Answer gauges + fault counters for the degradation smoke. Fault
  // counters are summed across worker rigs (each worker owns a private
  // injector with identical per-cell streams).
  obs::Registry registry;
  {
    MutexLock lock(&answers.mu);
    for (const auto& [cell, r] : answers.by_cell) {
      double sum = 0;
      for (double v : r.aggregates) sum += v;
      registry.gauge("result." + cell + ".sum")->Set(sum);
      registry.gauge("result." + cell + ".rows")
          ->Set(static_cast<double>(r.rows_matched));
    }
  }
  uint64_t injected = 0, retries = 0, exhausted = 0, fallbacks = 0;
  bool armed = false;
  for (int slot = 0; slot < 4096; ++slot) {
    Rig* rig = rigs.ForWorker(slot);
    if (rig == nullptr || rig->injector == nullptr) continue;
    armed = true;
    injected += rig->injector->total_injected();
    retries += rig->injector->total_retries();
    exhausted += rig->injector->total_exhausted();
    fallbacks += rig->injector->total_fallbacks();
  }
  registry.gauge("faults.armed")->Set(armed ? 1 : 0);
  registry.counter("faults.injected")->Set(injected);
  registry.counter("faults.retries")->Set(retries);
  registry.counter("faults.exhausted")->Set(exhausted);
  registry.counter("faults.fallbacks.total")->Set(fallbacks);

  MaybeWriteReport(args.json_path, "ablation_selection", results, config,
                   &registry);
  return 0;
}
