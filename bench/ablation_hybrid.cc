// Ablation A12 — the hybrid engine (paper §III-B): alternating
// column-at-a-time (ephemeral predicate columns) and row-at-a-time
// (base-row fetch of qualifying tuples) on the same single-copy base
// data. Sweeping selectivity exposes the three-way crossover: hybrid
// wins selective wide queries, pure RM wins unselective ones, and the
// row scan never wins a scan-shaped query.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/hybrid.h"
#include "engine/rm_exec.h"
#include "engine/volcano.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  explicit Rig(uint64_t rows) {
    layout::Schema schema =
        layout::Schema::Uniform(16, layout::ColumnType::kInt64);
    table = std::make_unique<layout::RowTable>(std::move(schema), &memory,
                                               rows);
    layout::RowBuilder b(&table->schema());
    Random rng(1);
    for (uint64_t r = 0; r < rows; ++r) {
      b.Reset();
      for (int c = 0; c < 16; ++c) {
        b.AddInt64(static_cast<int64_t>(rng.Uniform(1000)));
      }
      table->AppendRow(b.Finish());
    }
    rm = std::make_unique<relmem::RmEngine>(&memory);
  }

  engine::QuerySpec Query(int permille) const {
    engine::QuerySpec spec;
    for (uint32_t c = 0; c < 10; ++c) {
      spec.aggregates.push_back(
          {engine::AggFunc::kSum, spec.exprs.Column(c)});
    }
    spec.predicates.push_back(
        engine::Predicate::Int(15, relmem::CompareOp::kLt, permille));
    return spec;
  }

  sim::MemorySystem memory;
  std::unique_ptr<layout::RowTable> table;
  std::unique_ptr<relmem::RmEngine> rm;
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
      "Ablation A12: hybrid (column-select + row-fetch) vs pure RM vs "
      "row scan — 10-column sum, selectivity sweep (" +
      std::to_string(rows) + " rows)");

  for (int permille : {1, 5, 20, 100, 300, 600, 1000}) {
    const std::string x = std::to_string(permille / 10.0) + "%";
    RegisterSimBenchmark("hybrid/row/" + x, &results, "ROW", x,
                         [&rigs, permille] {
                           Rig& rig = rigs.Get();
                           rig.memory.ResetState();
                           engine::VolcanoEngine eng(rig.table.get());
                           return eng.Execute(rig.Query(permille))->sim_cycles;
                         });
    RegisterSimBenchmark("hybrid/rm/" + x, &results, "RM", x,
                         [&rigs, permille] {
                           Rig& rig = rigs.Get();
                           rig.memory.ResetState();
                           engine::RmExecEngine eng(rig.table.get(),
                                                    rig.rm.get());
                           return eng.Execute(rig.Query(permille))->sim_cycles;
                         });
    RegisterSimBenchmark("hybrid/hybrid/" + x, &results, "HYBRID", x,
                         [&rigs, permille] {
                           Rig& rig = rigs.Get();
                           rig.memory.ResetState();
                           engine::HybridEngine eng(rig.table.get(),
                                                    rig.rm.get());
                           return eng.Execute(rig.Query(permille))->sim_cycles;
                         });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("selectivity");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_hybrid", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
