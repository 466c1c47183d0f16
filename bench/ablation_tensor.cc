// Ablation A11 — matrix slicing through the fabric (paper §VII Q1):
// "data transformation has great potential for other data-intensive
// applications over multi-dimensional data (matrix/tensor slicing and
// vectorized operations on matrix/tensor slices)". Summing one column of
// a row-major matrix is the canonical strided worst case; the fabric
// ships the slice densely. The wider the matrix, the larger the win.

#include <memory>

#include "bench/bench_util.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"
#include "tensor/matrix.h"

namespace relfab::bench {
namespace {

struct Rig {
  Rig(uint32_t cols, uint64_t rows) {
    auto m = tensor::Matrix::Create(0, cols, &memory);
    RELFAB_CHECK(m.ok());
    matrix = std::make_unique<tensor::Matrix>(std::move(*m));
    std::vector<double> row(cols, 1.0);
    for (uint64_t r = 0; r < rows; ++r) matrix->AppendRow(row.data());
    rm = std::make_unique<relmem::RmEngine>(&memory);
  }

  sim::MemorySystem memory;
  std::unique_ptr<tensor::Matrix> matrix;
  std::unique_ptr<relmem::RmEngine> rm;
};

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t total_doubles = FullScale() ? (1ull << 23) : (1ull << 21);
  ResultTable results(
      "Ablation A11: column-slice sum of a row-major matrix (constant "
      "total size, growing width)");

  // One worker-private rig per matrix shape.
  std::vector<std::unique_ptr<PerWorker<Rig>>> rigs;
  for (uint32_t cols : {8u, 16u, 32u, 64u, 128u, 256u}) {
    const uint64_t rows = total_doubles / cols;
    rigs.push_back(std::make_unique<PerWorker<Rig>>(
        [cols, rows] { return std::make_unique<Rig>(cols, rows); }));
    PerWorker<Rig>* rig = rigs.back().get();
    const std::string x = std::to_string(rows) + "x" + std::to_string(cols);
    RegisterSimBenchmark("tensor/direct/" + x, &results, "strided CPU", x,
                         [rig, cols] {
                           Rig& r = rig->Get();
                           r.memory.ResetState();
                           DoNotOptimize(r.matrix->SumColumnDirect(cols / 2));
                           return r.memory.ElapsedCycles();
                         });
    RegisterSimBenchmark("tensor/fabric/" + x, &results, "fabric slice", x,
                         [rig, cols] {
                           Rig& r = rig->Get();
                           r.memory.ResetState();
                           auto sum = r.matrix->SumColumnFabric(r.rm.get(),
                                                               cols / 2);
                           RELFAB_CHECK(sum.ok());
                           DoNotOptimize(*sum);
                           return r.memory.ElapsedCycles();
                         });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("matrix shape");
  results.PrintSpeedupVs("matrix shape", "strided CPU");

  std::map<std::string, std::string> config{
      {"total_doubles", std::to_string(total_doubles)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_tensor", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
