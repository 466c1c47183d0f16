// Reproduces Figures 7a and 7b of the paper: TPC-H Q1 and Q6 execution
// time for ROW / COL / RM while varying the data size. As in the paper,
// the x-axis sweeps the *target column* size (the bytes Q1/Q6 actually
// need per row: 26 B and 20 B respectively); the table is ~4-5x larger.
//
// Expected shape: Q1 is compute-bound — all three layouts land close
// together. Q6 is movement-bound — RM and COL clearly beat ROW, with
// RM >= COL, across all data sizes.
//
// Default sizes are scaled down 16x from the paper's 2..128 MB target
// columns; set RELFAB_FULL=1 for paper scale.

#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace relfab::bench {
namespace {

struct Dataset {
  std::unique_ptr<layout::RowTable> rows;
  std::unique_ptr<layout::ColumnTable> columns;
};

/// One worker's private copy of every dataset size plus the memory
/// system and RM engine: workers never share simulation state, so the
/// sweep parallelizes without any locking in the simulator.
struct Rig {
  sim::MemorySystem memory;
  relmem::RmEngine rm{&memory};
  std::map<uint64_t, Dataset> datasets;

  Rig(const std::vector<uint64_t>& target_mib, double scale) {
    for (uint64_t mib : target_mib) {
      const uint64_t rows = static_cast<uint64_t>(
          scale * static_cast<double>(mib) * 1024 * 1024 / 20.0);
      Dataset ds;
      ds.rows = std::make_unique<layout::RowTable>(
          tpch::GenerateLineitem(rows, /*seed=*/mib, &memory));
      ds.columns = std::make_unique<layout::ColumnTable>(*ds.rows, &memory);
      datasets[mib] = std::move(ds);
    }
  }
};

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const double scale = FullScale() ? 1.0 : 1.0 / 16.0;
  const std::vector<uint64_t> target_mib = {2, 4, 8, 16, 32, 64, 128};

  PerWorker<Rig> rigs(
      [&] { return std::make_unique<Rig>(target_mib, scale); });
  ResultTable q1_results("Figure 7a: TPC-H Q1");
  ResultTable q6_results("Figure 7b: TPC-H Q6");

  struct QueryDef {
    const char* name;
    engine::QuerySpec spec;
    uint32_t target_row_bytes;  // bytes per row the query touches
    ResultTable* results;
  };
  std::vector<QueryDef> defs;
  defs.push_back({"Q1", tpch::MakeQ1Spec(), 26, &q1_results});
  defs.push_back({"Q6", tpch::MakeQ6Spec(), 20, &q6_results});

  // Row counts are derived from the Q6 target width for every size so
  // the x-axis labels stay comparable across queries. The table size
  // label needs a built dataset; build one on the registration thread
  // (slot 0) — workers reuse it or build their own.
  Rig& label_rig = rigs.Get();

  for (const QueryDef& def : defs) {
    for (uint64_t mib : target_mib) {
      const uint64_t table_mib =
          label_rig.datasets.at(mib).rows->data_bytes() / (1024 * 1024);
      const std::string x = std::to_string(table_mib) + "MiB(" +
                            std::to_string(mib) + ")";
      const std::string base =
          std::string("fig7/") + def.name + "/" + x;
      const engine::QuerySpec* spec = &def.spec;
      ResultTable* results = def.results;
      RegisterSimBenchmark(base + "/ROW", results, "ROW", x, [&, spec, mib] {
        Rig& rig = rigs.Get();
        rig.memory.ResetState();
        engine::VolcanoEngine eng(rig.datasets.at(mib).rows.get());
        return eng.Execute(*spec)->sim_cycles;
      });
      RegisterSimBenchmark(base + "/COL", results, "COL", x, [&, spec, mib] {
        Rig& rig = rigs.Get();
        rig.memory.ResetState();
        engine::VectorEngine eng(rig.datasets.at(mib).columns.get());
        return eng.Execute(*spec)->sim_cycles;
      });
      RegisterSimBenchmark(base + "/RM", results, "RM", x, [&, spec, mib] {
        Rig& rig = rigs.Get();
        rig.memory.ResetState();
        engine::RmExecEngine eng(rig.datasets.at(mib).rows.get(), &rig.rm);
        return eng.Execute(*spec)->sim_cycles;
      });
    }
  }

  const int last_worker = RunSweep(args);
  if (args.list) return 0;
  q1_results.PrintCycles("table size (target col)");
  q1_results.PrintSpeedupVs("table size (target col)", "ROW");
  q6_results.PrintCycles("table size (target col)");
  q6_results.PrintSpeedupVs("table size (target col)", "ROW");

  if (!args.json_path.empty()) {
    // One report per query figure: "<path>" gets Q1, "<path>.q6.json"
    // gets Q6, each with a registry snapshot after its last point.
    obs::Registry registry;
    if (Rig* rig = rigs.ForWorker(last_worker)) {
      rig->memory.ExportTo(&registry);
      rig->rm.ExportTo(&registry);
    }
    std::map<std::string, std::string> config = {
        {"scale", FullScale() ? "1" : "1/16"}, {"sizes_mib", "2..128"}};
    AddStandardConfig(&config, args);
    MaybeWriteReport(args.json_path, "fig7_tpch_q1", q1_results, config,
                     &registry);
    MaybeWriteReport(args.json_path + ".q6.json", "fig7_tpch_q6",
                     q6_results, config, &registry);
  }
  return 0;
}
