// Ablation A6 — compression through Relational Fabric (paper §III-D).
// The fabric can project a compressed column out of row data only if the
// encoding is scatter-accessible. This bench models an RM column-group
// scan over an encoded column: the fabric gathers the (smaller) encoded
// bytes and decodes on the fly. Dictionary/delta/Huffman cut gather
// traffic at small decode cost; RLE pays a data-dependent positional
// search per row — the paper's reason it "cannot be used out of the
// box".

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "compress/delta.h"
#include "compress/dictionary.h"
#include "compress/huffman.h"
#include "compress/rle.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

/// Models the fabric streaming a single encoded column of `n` values:
/// gather of the encoded bytes (sequential, bank-parallel) + per-value
/// decode in the fabric + the CPU consuming the decoded dense stream.
/// Builds its own MemorySystem so every cell simulates from identical
/// state (same Allocate base address) at any thread count.
uint64_t ModelScan(uint64_t n, uint64_t encoded_bytes, double decode_cost) {
  sim::MemorySystem memory;
  const sim::SimParams& p = memory.params();
  const uint64_t base = memory.Allocate(encoded_bytes);
  memory.ResetState();
  // Fabric-side gather of the encoded column.
  double gather = 0;
  for (uint64_t addr = base; addr < base + encoded_bytes; addr += 64) {
    bool row_hit = false;
    const double lat = memory.GatherLine(addr, &row_hit);
    gather += p.line_transfer_cycles +
              (row_hit ? 0.0 : lat / p.fabric_gather_parallelism);
  }
  // Decode is fabric work; it pipelines with the gather.
  const double decode = static_cast<double>(n) * decode_cost;
  const double produce = std::max(gather, decode);
  // CPU consumes n decoded 8-byte values as one dense stream.
  const double out_lines = static_cast<double>(n) * 8 / 64;
  const double consume =
      out_lines * p.fabric_read_cycles + static_cast<double>(n) * 2.1;
  memory.Stall(std::max(produce, consume));
  return memory.ElapsedCycles();
}

std::vector<int64_t> MakeColumn(uint64_t n) {
  Random rng(3);
  std::vector<int64_t> values(n);
  int64_t run_value = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.01)) run_value = static_cast<int64_t>(rng.Uniform(64));
    values[i] = run_value;
  }
  return values;
}

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  using namespace relfab::compress;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t n = FullScale() ? (1ull << 22) : (1ull << 20);
  const std::vector<int64_t> values = MakeColumn(n);
  ResultTable results(
      "Ablation A6: fabric scan of one encoded column (" +
      std::to_string(n) + " values, low-cardinality run-heavy data)");

  struct Entry {
    const char* name;
    std::shared_ptr<ColumnCodec> codec;
    double decode_cost;
  };
  std::vector<Entry> entries;
  entries.push_back({"raw int64", nullptr, 0.0});
  entries.push_back({"dictionary", std::make_shared<DictionaryCodec>(), 0});
  entries.push_back({"delta", std::make_shared<DeltaCodec>(), 0});
  entries.push_back({"huffman", std::make_shared<HuffmanCodec>(), 0});
  entries.push_back({"rle", std::make_shared<RleCodec>(), 0});
  for (Entry& e : entries) {
    if (e.codec != nullptr) {
      RELFAB_CHECK(e.codec->Encode(values).ok());
      e.decode_cost = e.codec->decode_cost_per_value();
    }
  }

  for (const Entry& e : entries) {
    const uint64_t encoded =
        e.codec == nullptr ? n * 8 : e.codec->encoded_bytes();
    const double decode = e.decode_cost;
    RegisterSimBenchmark(std::string("compression/") + e.name, &results,
                         "fabric scan", e.name,
                         [=] { return ModelScan(n, encoded, decode); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("codec");
  std::printf("\nencoded sizes:\n");
  for (const Entry& e : entries) {
    const uint64_t encoded =
        e.codec == nullptr ? n * 8 : e.codec->encoded_bytes();
    std::printf("%-12s %12llu B  decode %.1f cycles/value%s\n", e.name,
                static_cast<unsigned long long>(encoded), e.decode_cost,
                e.codec != nullptr && !e.codec->scatter_accessible()
                    ? "  [NOT scatter-accessible]"
                    : "");
  }

  std::map<std::string, std::string> config{{"values", std::to_string(n)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_compression", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
