// Ablation A3 — prefetcher stream capacity. The paper attributes COL's
// degradation beyond 4 columns to the hardware prefetcher supporting
// "up to four parallel sequential accesses" (§V). Sweeping the stream-
// table capacity moves the columnar engine's cliff exactly to that
// capacity, while RM (one dense stream) is insensitive to it.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  explicit Rig(uint32_t streams, uint64_t rows) : memory(MakeParams(streams)) {
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
    columns = std::make_unique<layout::ColumnTable>(*table, &memory);
    rm = std::make_unique<relmem::RmEngine>(&memory);
  }

  static sim::SimParams MakeParams(uint32_t streams) {
    sim::SimParams p;
    p.prefetch_streams = streams;
    return p;
  }

  sim::MemorySystem memory;
  std::unique_ptr<layout::RowTable> table;
  std::unique_ptr<layout::ColumnTable> columns;
  std::unique_ptr<relmem::RmEngine> rm;
};

engine::QuerySpec Projection(uint32_t k) {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < k; ++c) spec.projection.push_back(c);
  return spec;
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 20) : (1ull << 18);
  ResultTable results(
      "Ablation A3: COL cycles vs projectivity for different prefetcher "
      "stream capacities (" + std::to_string(rows) + " rows); RM@4 shown "
      "for reference");

  // One worker-private rig per stream-capacity variant: a worker builds
  // only the variants whose cells it happens to run.
  std::vector<std::unique_ptr<PerWorker<Rig>>> rigs;
  for (uint32_t streams : {2u, 4u, 8u}) {
    rigs.push_back(std::make_unique<PerWorker<Rig>>(
        [streams, rows] { return std::make_unique<Rig>(streams, rows); }));
    PerWorker<Rig>* rig = rigs.back().get();
    const std::string series = "COL(pf=" + std::to_string(streams) + ")";
    for (uint32_t k = 1; k <= 12; ++k) {
      const std::string x = std::to_string(k);
      RegisterSimBenchmark("prefetch/" + series + "/k" + x, &results, series,
                           x, [rig, k] {
                             Rig& r = rig->Get();
                             r.memory.ResetState();
                             engine::VectorEngine eng(r.columns.get());
                             return eng.Execute(Projection(k))->sim_cycles;
                           });
    }
  }
  {
    rigs.push_back(std::make_unique<PerWorker<Rig>>(
        [rows] { return std::make_unique<Rig>(4, rows); }));
    PerWorker<Rig>* rig = rigs.back().get();
    for (uint32_t k = 1; k <= 12; ++k) {
      const std::string x = std::to_string(k);
      RegisterSimBenchmark("prefetch/RM/k" + x, &results, "RM(pf=4)", x,
                           [rig, k] {
                             Rig& r = rig->Get();
                             r.memory.ResetState();
                             engine::RmExecEngine eng(r.table.get(),
                                                      r.rm.get());
                             return eng.Execute(Projection(k))->sim_cycles;
                           });
    }
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("projectivity");

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_prefetcher", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
