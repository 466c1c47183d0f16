// Ablation A9 — indexes vs fabric range access (paper §III-A): "the
// usefulness of indexes is now smaller, since range queries can be
// efficiently evaluated with columnar accesses, so indexes should be
// used for point queries and point updates." This bench runs key-range
// sums of growing width: the B+-tree wins decisively at point/narrow
// ranges; the RM column-group scan takes over as the range widens, and
// the full volcano scan is dominated everywhere.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/rm_exec.h"
#include "engine/volcano.h"
#include "index/btree.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  explicit Rig(uint64_t rows) : num_rows(rows) {
    auto schema = layout::Schema::Create({
        {"key", layout::ColumnType::kInt64, 0},
        {"v0", layout::ColumnType::kInt32, 0},
        {"v1", layout::ColumnType::kInt32, 0},
        {"pad0", layout::ColumnType::kInt64, 0},
        {"pad1", layout::ColumnType::kInt64, 0},
        {"pad2", layout::ColumnType::kInt64, 0},
        {"pad3", layout::ColumnType::kInt64, 0},
        {"pad4", layout::ColumnType::kInt64, 0},
    });
    table = std::make_unique<layout::RowTable>(std::move(*schema), &memory,
                                               rows);
    layout::RowBuilder b(&table->schema());
    Random rng(1);
    for (uint64_t r = 0; r < rows; ++r) {
      b.Reset();
      // Dense unique keys in insertion order (a clustered primary key).
      b.AddInt64(static_cast<int64_t>(r))
          .AddInt32(static_cast<int32_t>(rng.Uniform(100)))
          .AddInt32(static_cast<int32_t>(rng.Uniform(100)))
          .AddInt64(0)
          .AddInt64(0)
          .AddInt64(0)
          .AddInt64(0)
          .AddInt64(0);
      table->AppendRow(b.Finish());
    }
    index = std::make_unique<index::BTreeIndex>(&memory);
    for (uint64_t r = 0; r < rows; ++r) {
      index->Insert(static_cast<int64_t>(r), r);
    }
    rm = std::make_unique<relmem::RmEngine>(&memory);
  }

  engine::QuerySpec RangeQuery(int64_t lo, int64_t hi) const {
    engine::QuerySpec spec;
    spec.aggregates.push_back({engine::AggFunc::kSum, spec.exprs.Column(1)});
    spec.predicates.push_back(
        engine::Predicate::Int(0, relmem::CompareOp::kGe, lo));
    spec.predicates.push_back(
        engine::Predicate::Int(0, relmem::CompareOp::kLe, hi));
    return spec;
  }

  uint64_t RunIndex(int64_t lo, int64_t hi) {
    memory.ResetState();
    const std::vector<uint64_t> rows = index->Range(lo, hi);
    engine::VolcanoEngine eng(table.get());
    return eng.ExecuteOnRowIds(RangeQuery(lo, hi), rows)->sim_cycles;
  }
  uint64_t RunRm(int64_t lo, int64_t hi) {
    memory.ResetState();
    engine::RmExecEngine eng(table.get(), rm.get(),
                             engine::CostModel::A53Defaults(),
                             /*pushdown_selection=*/true);
    return eng.Execute(RangeQuery(lo, hi))->sim_cycles;
  }
  uint64_t RunRow(int64_t lo, int64_t hi) {
    memory.ResetState();
    engine::VolcanoEngine eng(table.get());
    return eng.Execute(RangeQuery(lo, hi))->sim_cycles;
  }

  uint64_t num_rows;
  sim::MemorySystem memory;
  std::unique_ptr<layout::RowTable> table;
  std::unique_ptr<index::BTreeIndex> index;
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
      "Ablation A9: key-range sum — B+-tree vs RM column access vs row "
      "scan (" + std::to_string(rows) + " rows)");

  const std::vector<uint64_t> widths = {1,     16,       256,  4096,
                                        65536, rows / 4, rows};
  for (uint64_t width : widths) {
    const int64_t lo = static_cast<int64_t>(rows / 3);
    const int64_t hi = lo + static_cast<int64_t>(width) - 1;
    const std::string x = std::to_string(width) + " keys";
    RegisterSimBenchmark("index/btree/" + x, &results, "INDEX", x,
                         [&rigs, lo, hi] { return rigs.Get().RunIndex(lo, hi); });
    RegisterSimBenchmark("index/rm/" + x, &results, "RM", x,
                         [&rigs, lo, hi] { return rigs.Get().RunRm(lo, hi); });
    RegisterSimBenchmark("index/row/" + x, &results, "ROW", x,
                         [&rigs, lo, hi] { return rigs.Get().RunRow(lo, hi); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("range width");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_index", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
