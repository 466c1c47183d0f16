// Reproduces Figure 5 of the paper: normalized execution time of ROW /
// COL / RM while varying projectivity from 1 to 11 target columns over a
// table of 4-byte columns and 64-byte rows.
//
// Expected shape: ROW flat and slowest at every projectivity; COL fastest
// for <= 4 columns; RM overtakes COL beyond 4 columns (prefetch-stream
// exhaustion + tuple reconstruction) and always beats ROW.

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

constexpr uint32_t kTableColumns = 16;  // 16 x 4 B = 64 B rows
constexpr uint32_t kMaxProjectivity = 11;

layout::RowTable BuildTable(uint64_t rows, sim::MemorySystem* memory) {
  layout::Schema schema =
      layout::Schema::Uniform(kTableColumns, layout::ColumnType::kInt32);
  layout::RowTable table(std::move(schema), memory, rows);
  layout::RowBuilder builder(&table.schema());
  Random rng(42);
  for (uint64_t r = 0; r < rows; ++r) {
    builder.Reset();
    for (uint32_t c = 0; c < kTableColumns; ++c) {
      builder.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
    }
    table.AppendRow(builder.Finish());
  }
  return table;
}

engine::QuerySpec ProjectionQuery(uint32_t k) {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < k; ++c) spec.projection.push_back(c);
  return spec;
}

/// Everything one sweep cell needs; each SweepRunner worker builds its
/// own (identical) instance, so cells never share simulation state.
struct Rig {
  sim::MemorySystem memory;
  layout::RowTable table;
  layout::ColumnTable columns;
  relmem::RmEngine rm;

  explicit Rig(uint64_t rows)
      : table(BuildTable(rows, &memory)), columns(table, &memory), rm(&memory) {}
};

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 22) : (1ull << 20);
  PerWorker<Rig> rigs([rows] { return std::make_unique<Rig>(rows); });
  ResultTable results("Figure 5: projectivity sweep (" + std::to_string(rows) +
                      " rows)");

  for (uint32_t k = 1; k <= kMaxProjectivity; ++k) {
    const std::string x = std::to_string(k);
    RegisterSimBenchmark("fig5/ROW/proj:" + x, &results, "ROW", x, [&, k] {
      Rig& rig = rigs.Get();
      rig.memory.ResetState();
      engine::VolcanoEngine eng(&rig.table);
      return eng.Execute(ProjectionQuery(k))->sim_cycles;
    });
    RegisterSimBenchmark("fig5/COL/proj:" + x, &results, "COL", x, [&, k] {
      Rig& rig = rigs.Get();
      rig.memory.ResetState();
      engine::VectorEngine eng(&rig.columns);
      return eng.Execute(ProjectionQuery(k))->sim_cycles;
    });
    RegisterSimBenchmark("fig5/RM/proj:" + x, &results, "RM", x, [&, k] {
      Rig& rig = rigs.Get();
      rig.memory.ResetState();
      engine::RmExecEngine eng(&rig.table, &rig.rm);
      return eng.Execute(ProjectionQuery(k))->sim_cycles;
    });
  }

  const int last_worker = RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("projectivity");
  results.PrintNormalized("projectivity", "ROW");

  // Snapshot of the memory hierarchy after the last registered point
  // (RM at max projectivity) — the gather/demand split it reports is the
  // figure's data-movement story. Taken from the rig of whichever worker
  // ran that cell; with --threads > 1 the snapshot's counters cover the
  // subset of cells that worker happened to run, so diff tooling
  // compares `results` only.
  std::map<std::string, std::string> config{
      {"rows", std::to_string(rows)},
      {"table_columns", std::to_string(kTableColumns)}};
  AddStandardConfig(&config, args);
  obs::Registry registry;
  if (Rig* rig = rigs.ForWorker(last_worker)) {
    rig->memory.ExportTo(&registry);
    rig->rm.ExportTo(&registry);
  }
  MaybeWriteReport(args.json_path, "fig5_projectivity", results, config,
                   &registry);
  return 0;
}
