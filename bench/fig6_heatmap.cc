// Reproduces Figures 6a and 6b of the paper: heatmaps of RM's speedup
// over ROW (6a) and over COL (6b) for projection-selection queries, with
// the number of projected columns and the number of selection columns
// each swept from 1 to 10.
//
// Expected shape: 6a — RM beats ROW everywhere (~1.3-1.5x), speedup
// mildly decreasing as the query touches more columns. 6b — COL wins in
// the lower-left corner (few total columns, ratio < 1); RM dominates
// once the query touches more than ~4 columns (up to ~2x).

#include <cstdio>

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

// Projected columns come from [0, 10); selection columns from [10, 20) —
// disjoint, as in the paper's grid.
constexpr uint32_t kTableColumns = 20;
constexpr uint32_t kGrid = 10;

layout::RowTable BuildTable(uint64_t rows, sim::MemorySystem* memory) {
  layout::Schema schema =
      layout::Schema::Uniform(kTableColumns, layout::ColumnType::kInt32);
  layout::RowTable table(std::move(schema), memory, rows);
  layout::RowBuilder builder(&table.schema());
  Random rng(7);
  for (uint64_t r = 0; r < rows; ++r) {
    builder.Reset();
    for (uint32_t c = 0; c < kTableColumns; ++c) {
      builder.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
    }
    table.AppendRow(builder.Finish());
  }
  return table;
}

// p projected columns, s selection conjuncts (each ~95% selective, so
// the projection phase keeps meaningful work at every grid point).
engine::QuerySpec GridQuery(uint32_t p, uint32_t s) {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < p; ++c) spec.projection.push_back(c);
  for (uint32_t c = 0; c < s; ++c) {
    spec.predicates.push_back(engine::Predicate::Int(
        kGrid + c, relmem::CompareOp::kLt, 95));
  }
  return spec;
}

/// One worker's private copy of the base data and engines: cells on
/// different SweepRunner workers never share simulation state.
struct Rig {
  sim::MemorySystem memory;
  layout::RowTable table;
  layout::ColumnTable columns;
  relmem::RmEngine rm;

  explicit Rig(uint64_t rows)
      : table(BuildTable(rows, &memory)),
        columns(table, &memory),
        rm(&memory) {}
};

std::string GridLabel(uint32_t p, uint32_t s) {
  return "p" + std::to_string(p) + "/s" + std::to_string(s);
}

void PrintHeatmap(const ResultTable& results, const char* title,
                  const std::string& num, const std::string& den) {
  std::printf("\n=== %s ===\n", title);
  std::printf("sel\\proj");
  for (uint32_t p = 1; p <= kGrid; ++p) std::printf(" %6u", p);
  std::printf("\n");
  for (uint32_t s = kGrid; s >= 1; --s) {
    std::printf("%8u", s);
    for (uint32_t p = 1; p <= kGrid; ++p) {
      const std::string x = GridLabel(p, s);
      std::printf(" %6.2f", static_cast<double>(results.Get(num, x)) /
                                static_cast<double>(results.Get(den, x)));
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 21) : (1ull << 19);
  PerWorker<Rig> rigs([rows] { return std::make_unique<Rig>(rows); });
  ResultTable results("Figure 6 grid");

  for (uint32_t p = 1; p <= kGrid; ++p) {
    for (uint32_t s = 1; s <= kGrid; ++s) {
      const std::string x = GridLabel(p, s);
      RegisterSimBenchmark("fig6/ROW/" + x, &results, "ROW", x, [&, p, s] {
        Rig& rig = rigs.Get();
        rig.memory.ResetState();
        engine::VolcanoEngine eng(&rig.table);
        return eng.Execute(GridQuery(p, s))->sim_cycles;
      });
      RegisterSimBenchmark("fig6/COL/" + x, &results, "COL", x, [&, p, s] {
        Rig& rig = rigs.Get();
        rig.memory.ResetState();
        engine::VectorEngine eng(&rig.columns);
        return eng.Execute(GridQuery(p, s))->sim_cycles;
      });
      RegisterSimBenchmark("fig6/RM/" + x, &results, "RM", x, [&, p, s] {
        Rig& rig = rigs.Get();
        rig.memory.ResetState();
        engine::RmExecEngine eng(&rig.table, &rig.rm);
        return eng.Execute(GridQuery(p, s))->sim_cycles;
      });
    }
  }

  const int last_worker = RunSweep(args);
  if (args.list) return 0;
  PrintHeatmap(results, "Figure 6a: speedup RM vs ROW", "ROW", "RM");
  PrintHeatmap(results, "Figure 6b: speedup RM vs COL", "COL", "RM");

  std::map<std::string, std::string> config{
      {"rows", std::to_string(rows)},
      {"table_columns", std::to_string(kTableColumns)},
      {"grid", std::to_string(kGrid)}};
  AddStandardConfig(&config, args);
  obs::Registry registry;
  if (Rig* rig = rigs.ForWorker(last_worker)) {
    rig->memory.ExportTo(&registry);
    rig->rm.ExportTo(&registry);
  }
  MaybeWriteReport(args.json_path, "fig6_heatmap", results, config,
                   &registry);
  return 0;
}
