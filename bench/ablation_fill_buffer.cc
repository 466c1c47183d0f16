// Ablation A1 — fill-buffer size. The paper's RM "supports arbitrary
// data sizes even with a small data memory of 2 MB on the FPGA by
// refilling it whenever it is full" (§V). This bench sweeps the buffer
// size and reports the refill count and the end-to-end cost of an
// RM scan, showing the re-arm overhead amortizing away.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "engine/rm_exec.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

engine::QuerySpec WideProjection() {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < 8; ++c) spec.projection.push_back(c);
  return spec;
}

// Builds the whole rig inside the cell: every invocation simulates on a
// fresh MemorySystem, so cells are order- and thread-independent.
uint64_t RunWithBuffer(uint64_t buffer_bytes, uint64_t rows,
                       uint64_t* refills) {
  sim::SimParams params;
  params.fabric_buffer_bytes = buffer_bytes;
  sim::MemorySystem memory(params);
  layout::Schema schema =
      layout::Schema::Uniform(16, layout::ColumnType::kInt32);
  layout::RowTable table(std::move(schema), &memory, rows);
  layout::RowBuilder b(&table.schema());
  Random rng(1);
  for (uint64_t r = 0; r < rows; ++r) {
    b.Reset();
    for (int c = 0; c < 16; ++c) {
      b.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
    }
    table.AppendRow(b.Finish());
  }
  relmem::RmEngine rm(&memory);
  memory.ResetState();
  engine::RmExecEngine eng(&table, &rm);
  const uint64_t cycles = eng.Execute(WideProjection())->sim_cycles;
  *refills = memory.stats().fabric_refills;
  return cycles;
}

/// Per-x refill counts, written under a mutex because sweep workers
/// finish cells concurrently.
struct RefillCounts {
  Mutex mu;
  std::map<std::string, uint64_t> by_x RELFAB_GUARDED_BY(mu);

  void Record(const std::string& x, uint64_t refills) {
    MutexLock lock(&mu);
    by_x[x] = refills;
  }
  std::map<std::string, uint64_t> Snapshot() {
    MutexLock lock(&mu);
    return by_x;
  }
};

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t rows = FullScale() ? (1ull << 21) : (1ull << 19);
  ResultTable results("Ablation A1: fill-buffer size (" +
                      std::to_string(rows) + " rows, 8 of 16 "
                      "columns projected)");
  // Side output filled from concurrent sweep workers.
  RefillCounts refill_counts;

  for (uint64_t kib : {16ull, 64ull, 256ull, 1024ull, 2048ull, 8192ull}) {
    const std::string x = std::to_string(kib) + " KiB";
    RegisterSimBenchmark("fill_buffer/" + x, &results, "RM", x, [&, kib, x] {
      uint64_t refills = 0;
      const uint64_t cycles = RunWithBuffer(kib * 1024, rows, &refills);
      refill_counts.Record(x, refills);
      return cycles;
    });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("buffer size");
  std::printf("\nrefills per scan:\n");
  for (const auto& [x, n] : refill_counts.Snapshot()) {
    std::printf("%-12s %llu\n", x.c_str(),
                static_cast<unsigned long long>(n));
  }

  std::map<std::string, std::string> config{{"rows", std::to_string(rows)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_fill_buffer", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
