// Ablation A13 — code-fragment reuse (paper §III-B): a legacy adaptive
// system compiles one fragment per (query, buffered layout) pair, so a
// working set of Q ad-hoc queries occupies Q x L cache slots; with
// Relational Fabric "data layouts are not buffered", one fragment per
// query suffices and previously compiled fragments are reused far more
// aggressively. This bench streams a rotating ad-hoc query mix and
// reports total compilation stalls for both regimes across fragment
// budgets.

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "engine/code_cache.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

/// Per-x fragment hit rates (fabric, legacy), written under a mutex
/// because sweep workers finish cells concurrently.
struct HitRates {
  Mutex mu;
  std::map<std::string, std::pair<double, double>> by_x
      RELFAB_GUARDED_BY(mu);

  void RecordFabric(const std::string& x, double rate) {
    MutexLock lock(&mu);
    by_x[x].first = rate;
  }
  void RecordLegacy(const std::string& x, double rate) {
    MutexLock lock(&mu);
    by_x[x].second = rate;
  }
  std::map<std::string, std::pair<double, double>> Snapshot() {
    MutexLock lock(&mu);
    return by_x;
  }
};

constexpr int kDistinctQueries = 24;
constexpr int kStatements = 2000;
constexpr uint32_t kLegacyLayouts = 3;  // row, column, hybrid variants

engine::QuerySpec MakeQuery(int id) {
  engine::QuerySpec spec;
  spec.aggregates.push_back(
      {engine::AggFunc::kSum,
       spec.exprs.Column(static_cast<uint32_t>(id % 16))});
  spec.predicates.push_back(engine::Predicate::Int(
      static_cast<uint32_t>(id % 7), relmem::CompareOp::kLt, id));
  return spec;
}

/// Streams a Zipf-ish ad-hoc workload through a fragment cache; returns
/// the simulated cycles spent compiling + looking up. Owns its
/// MemorySystem, so every cell simulates from identical state.
uint64_t RunWorkload(uint32_t capacity, uint32_t layouts_per_query,
                     double* hit_rate) {
  sim::MemorySystem memory;
  engine::CodeCache cache(&memory, capacity);
  Random rng(9);
  for (int s = 0; s < kStatements; ++s) {
    // Skewed query popularity: low ids repeat often.
    const int hot = static_cast<int>(rng.Uniform(6));
    const int id = rng.Bernoulli(0.7)
                       ? hot
                       : static_cast<int>(rng.Uniform(kDistinctQueries));
    const engine::QuerySpec spec = MakeQuery(id);
    // Legacy systems pick the fragment for the layout the optimizer
    // chose this time; which variant is needed varies by plan.
    const uint32_t layout =
        layouts_per_query == 1
            ? 0
            : static_cast<uint32_t>(rng.Uniform(layouts_per_query));
    cache.Require(engine::CodeCache::Signature(spec, layout));
  }
  *hit_rate = cache.hit_rate();
  return memory.ElapsedCycles();
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  ResultTable results(
      "Ablation A13: compilation stalls over " +
      std::to_string(kStatements) + " ad-hoc statements (" +
      std::to_string(kDistinctQueries) + " distinct queries)");
  // Side output filled from concurrent sweep workers.
  HitRates hit_rates;

  for (uint32_t capacity : {8u, 16u, 24u, 48u, 96u}) {
    const std::string x = std::to_string(capacity) + " slots";
    RegisterSimBenchmark("codegen/fabric/" + x, &results, "fabric (1 layout)",
                         x, [&, capacity, x] {
                           double rate = 0;
                           const uint64_t c = RunWorkload(capacity, 1, &rate);
                           hit_rates.RecordFabric(x, rate);
                           return c;
                         });
    RegisterSimBenchmark(
        "codegen/legacy/" + x, &results,
        "legacy (" + std::to_string(kLegacyLayouts) + " layouts)", x,
        [&, capacity, x] {
          double rate = 0;
          const uint64_t c = RunWorkload(capacity, kLegacyLayouts, &rate);
          hit_rates.RecordLegacy(x, rate);
          return c;
        });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("fragment budget");
  std::printf("\nfragment hit rates (fabric vs legacy):\n");
  for (const auto& [x, rates] : hit_rates.Snapshot()) {
    std::printf("%-10s %5.1f%% vs %5.1f%%\n", x.c_str(),
                100 * rates.first, 100 * rates.second);
  }

  std::map<std::string, std::string> config{
      {"statements", std::to_string(kStatements)},
      {"distinct_queries", std::to_string(kDistinctQueries)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_codegen", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
