// Ablation A14 — aggregation pushdown (paper §IV-B): with the reduction
// unit inside the fabric, "the ephemeral variables will contain only
// ... the aggregation result, which will be passed through the memory
// hierarchy ensuring minimal data movement". Compares a k-column SUM
// evaluated (a) by the CPU over an ephemeral group, (b) inside the
// fabric, and (c) by the row engine — sweeping the number of reduced
// columns.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
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
        layout::Schema::Uniform(16, layout::ColumnType::kInt32);
    table = std::make_unique<layout::RowTable>(std::move(schema), &memory,
                                               rows);
    layout::RowBuilder b(&table->schema());
    Random rng(1);
    for (uint64_t r = 0; r < rows; ++r) {
      b.Reset();
      for (int c = 0; c < 16; ++c) {
        b.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
      }
      table->AppendRow(b.Finish());
    }
    rm = std::make_unique<relmem::RmEngine>(&memory);
  }

  engine::QuerySpec SumQuery(uint32_t k) const {
    engine::QuerySpec spec;
    for (uint32_t c = 0; c < k; ++c) {
      spec.aggregates.push_back(
          {engine::AggFunc::kSum, spec.exprs.Column(c)});
    }
    return spec;
  }

  uint64_t RunCpu(uint32_t k) {
    memory.ResetState();
    engine::RmExecEngine eng(table.get(), rm.get());
    return eng.Execute(SumQuery(k))->sim_cycles;
  }
  uint64_t RunFabric(uint32_t k) {
    memory.ResetState();
    relmem::Geometry g = relmem::Geometry::FirstColumns(k);
    std::vector<relmem::RmEngine::FabricAgg> aggs;
    for (uint32_t c = 0; c < k; ++c) {
      aggs.push_back({relmem::RmEngine::FabricAggOp::kSum, c});
    }
    auto result = rm->AggregateInFabric(*table, g, aggs);
    RELFAB_CHECK(result.ok());
    DoNotOptimize(result->values[0]);
    return memory.ElapsedCycles();
  }
  uint64_t RunRow(uint32_t k) {
    memory.ResetState();
    engine::VolcanoEngine eng(table.get());
    return eng.Execute(SumQuery(k))->sim_cycles;
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
      "Ablation A14: k-column SUM — CPU over ephemeral group vs in-fabric "
      "reduction vs row scan (" + std::to_string(rows) + " rows)");

  for (uint32_t k : {1u, 2u, 4u, 8u, 12u}) {
    const std::string x = std::to_string(k) + " cols";
    RegisterSimBenchmark("agg/row/" + x, &results, "ROW", x,
                         [&rigs, k] { return rigs.Get().RunRow(k); });
    RegisterSimBenchmark("agg/rm_cpu/" + x, &results, "RM + CPU agg", x,
                         [&rigs, k] { return rigs.Get().RunCpu(k); });
    RegisterSimBenchmark("agg/fabric/" + x, &results, "fabric agg", x,
                         [&rigs, k] { return rigs.Get().RunFabric(k); });
  }

  const int last_worker = RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("reduced columns");
  results.PrintSpeedupVs("reduced columns", "RM + CPU agg");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  obs::Registry registry;
  if (Rig* rig = rigs.ForWorker(last_worker)) {
    rig->memory.ExportTo(&registry);
    rig->rm->ExportTo(&registry);
  }
  MaybeWriteReport(args.json_path, "ablation_aggregation", results, config,
                   &registry);
  return 0;
}
