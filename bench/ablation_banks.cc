// Ablation A2 — bank-level parallelism. RM "exploits the inherent
// parallelism of memory cells" (§II): the gather engine drives DRAM
// banks concurrently. Sweeping the gather parallelism shows RM's
// production rate degrading toward serial DRAM latency when the
// parallelism is taken away — the design choice that makes near-data
// gathering viable. Wide 256-byte rows with a scattered 2-column group
// keep the scan gather-bound so the effect is visible end to end.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/rm_exec.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

// Builds the whole rig inside the cell: every invocation simulates on a
// fresh MemorySystem, so cells are trivially order- and
// thread-independent.
uint64_t RunWithBanks(uint32_t parallelism, uint64_t rows) {
  sim::SimParams params;
  params.fabric_gather_parallelism = parallelism;
  sim::MemorySystem memory(params);
  layout::Schema schema =
      layout::Schema::Uniform(64, layout::ColumnType::kInt32);  // 256 B rows
  layout::RowTable table(std::move(schema), &memory, rows);
  layout::RowBuilder b(&table.schema());
  Random rng(1);
  for (uint64_t r = 0; r < rows; ++r) {
    b.Reset();
    for (int c = 0; c < 64; ++c) {
      b.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
    }
    table.AppendRow(b.Finish());
  }
  relmem::RmEngine rm(&memory);
  memory.ResetState();
  engine::RmExecEngine eng(&table, &rm);
  engine::QuerySpec spec;
  spec.projection = {0, 32};  // two far-apart columns: 2 lines per row
  return eng.Execute(spec)->sim_cycles;
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 20) : (1ull << 18);
  ResultTable results(
      "Ablation A2: RM gather parallelism (256 B rows, scattered 2-column "
      "group, " + std::to_string(rows) + " rows)");

  for (uint32_t banks : {1u, 2u, 4u, 8u, 16u}) {
    const std::string x = std::to_string(banks) + " banks";
    RegisterSimBenchmark("banks/" + x, &results, "RM", x,
                         [=] { return RunWithBanks(banks, rows); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("gather parallelism");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_banks", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
