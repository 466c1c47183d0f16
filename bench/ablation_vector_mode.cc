// Ablation A8 — columnar execution strategy. The paper's COL baseline
// behaves like a fused multi-cursor scan (all referenced columns advance
// in lockstep), which is what exhausts the prefetcher beyond 4 columns.
// The alternative column-at-a-time strategy evaluates one predicate
// column at a time (single stream each) before a lockstep output pass.
// This bench quantifies when each strategy wins — context for how much
// of COL's Figure 5/6 penalty is engine policy vs hardware limit.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/vector_engine.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  explicit Rig(uint64_t rows) {
    layout::Schema schema =
        layout::Schema::Uniform(20, layout::ColumnType::kInt32);
    table = std::make_unique<layout::RowTable>(std::move(schema), &memory,
                                               rows);
    layout::RowBuilder b(&table->schema());
    Random rng(1);
    for (uint64_t r = 0; r < rows; ++r) {
      b.Reset();
      for (int c = 0; c < 20; ++c) {
        b.AddInt32(static_cast<int32_t>(rng.Uniform(1000)));
      }
      table->AppendRow(b.Finish());
    }
    columns = std::make_unique<layout::ColumnTable>(*table, &memory);
  }

  sim::MemorySystem memory;
  std::unique_ptr<layout::RowTable> table;
  std::unique_ptr<layout::ColumnTable> columns;
};

engine::QuerySpec Query(uint32_t preds, int permille) {
  engine::QuerySpec spec;
  spec.aggregates.push_back({engine::AggFunc::kSum, spec.exprs.Column(0)});
  for (uint32_t c = 0; c < preds; ++c) {
    spec.predicates.push_back(
        engine::Predicate::Int(10 + c, relmem::CompareOp::kLt, permille));
  }
  return spec;
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 20) : (1ull << 18);
  PerWorker<Rig> rigs([rows] { return std::make_unique<Rig>(rows); });
  ResultTable results(
      "Ablation A8: fused lockstep vs column-at-a-time (sum of c0, "
      "conjuncts of varying count/selectivity, " + std::to_string(rows) +
      " rows)");

  for (uint32_t preds : {1u, 3u, 6u, 9u}) {
    for (int permille : {100, 900}) {
      const std::string x = std::to_string(preds) + " preds @" +
                            std::to_string(permille / 10) + "%";
      RegisterSimBenchmark(
          "vector_mode/fused/" + x, &results, "fused", x,
          [&rigs, preds, permille] {
            Rig& rig = rigs.Get();
            rig.memory.ResetState();
            engine::VectorEngine eng(rig.columns.get(),
                                     engine::CostModel::A53Defaults(),
                                     engine::VectorMode::kFusedLockstep);
            return eng.Execute(Query(preds, permille))->sim_cycles;
          });
      RegisterSimBenchmark(
          "vector_mode/caat/" + x, &results, "column-at-a-time", x,
          [&rigs, preds, permille] {
            Rig& rig = rigs.Get();
            rig.memory.ResetState();
            engine::VectorEngine eng(rig.columns.get(),
                                     engine::CostModel::A53Defaults(),
                                     engine::VectorMode::kColumnAtATime);
            return eng.Execute(Query(preds, permille))->sim_cycles;
          });
    }
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("conjuncts @ per-conjunct selectivity");
  results.PrintSpeedupVs("conjuncts @ per-conjunct selectivity", "fused");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_vector_mode", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
