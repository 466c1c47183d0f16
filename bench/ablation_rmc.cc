// Ablation A10 — Relational Memory Controller (paper §IV-C): moving the
// transformer from external programmable logic (100 MHz, AXI-configured)
// into the memory controller itself (controller clock, first-party bank
// access, ISA-extension configuration). Same queries, same geometry —
// only the placement parameters change. RMC lifts the fabric production
// floor that dominates narrow column groups.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/rm_exec.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  Rig(const sim::SimParams& params, uint64_t rows) : memory(params) {
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

  uint64_t Run(uint32_t k) {
    memory.ResetState();
    engine::QuerySpec spec;
    for (uint32_t c = 0; c < k; ++c) spec.projection.push_back(c);
    engine::RmExecEngine eng(table.get(), rm.get());
    return eng.Execute(spec)->sim_cycles;
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
  PerWorker<Rig> pl_rigs([rows] {
    return std::make_unique<Rig>(sim::SimParams::ZynqA53Defaults(), rows);
  });
  PerWorker<Rig> rmc_rigs([rows] {
    return std::make_unique<Rig>(
        sim::SimParams::RelationalMemoryControllerDefaults(), rows);
  });
  ResultTable results(
      "Ablation A10: RM in programmable logic vs in the memory controller "
      "(projection sweep, " + std::to_string(rows) + " rows)");

  for (uint32_t k = 1; k <= 11; ++k) {
    const std::string x = std::to_string(k);
    RegisterSimBenchmark("rmc/pl/k" + x, &results, "RM (PL fabric)", x,
                         [&pl_rigs, k] { return pl_rigs.Get().Run(k); });
    RegisterSimBenchmark("rmc/mc/k" + x, &results, "RMC (controller)", x,
                         [&rmc_rigs, k] { return rmc_rigs.Get().Run(k); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("projectivity");
  results.PrintSpeedupVs("projectivity", "RM (PL fabric)");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_rmc", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
