// Fast-path equivalence suite: the batched simulation kernel must be
// *bit-identical* to the per-line reference walk — same ElapsedCycles(),
// same double-precision clocks, same MemStats — for every access
// pattern. Each test drives a fast-path MemorySystem and a reference
// MemorySystem through the same operations and compares exhaustively;
// the engine-level tests replay full query executions on twin rigs.
// A vacuity check asserts the fast path actually engaged (otherwise a
// broken dispatch that always falls back would pass trivially).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "engine/hybrid.h"
#include "obs/registry.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/memory_system.h"

namespace relfab {
namespace {

using engine::AggFunc;
using engine::QuerySpec;
using layout::ColumnType;
using layout::RowBuilder;
using layout::RowTable;
using layout::Schema;
using sim::MemorySystem;
using sim::SimParams;

/// Bitwise double equality (EXPECT_EQ on doubles is value equality,
/// which is what we want too, but comparing the raw bits makes the
/// failure output unambiguous and catches -0.0 vs 0.0 drift).
uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Registry-level parity: exporting both systems through the metrics
/// spine must agree instrument-for-instrument and bit-for-bit. Only the
/// "sim.fastpath.*" family is excluded — it records which kernel ran,
/// so it differs between the modes by design. This is what the
/// telemetry layer samples, so equivalence of raw MemStats alone is
/// not enough: a field added to ExportTo but not to ExpectSameSim
/// would otherwise escape the equivalence suite.
void ExpectSameSimMetrics(const MemorySystem& fast, const MemorySystem& ref) {
  obs::Registry fast_reg;
  obs::Registry ref_reg;
  fast.ExportTo(&fast_reg);
  ref.ExportTo(&ref_reg);
  const auto is_mode_marker = [](const std::string& name) {
    return name.rfind("sim.fastpath.", 0) == 0;
  };
  EXPECT_EQ(fast_reg.counters().size(), ref_reg.counters().size());
  EXPECT_EQ(fast_reg.gauges().size(), ref_reg.gauges().size());
  for (const auto& [name, counter] : fast_reg.counters()) {
    if (is_mode_marker(name)) continue;
    auto it = ref_reg.counters().find(name);
    ASSERT_NE(it, ref_reg.counters().end()) << "missing counter " << name;
    EXPECT_EQ(counter->value(), it->second->value()) << name;
  }
  for (const auto& [name, gauge] : fast_reg.gauges()) {
    if (is_mode_marker(name)) continue;
    auto it = ref_reg.gauges().find(name);
    ASSERT_NE(it, ref_reg.gauges().end()) << "missing gauge " << name;
    EXPECT_EQ(Bits(gauge->value()), Bits(it->second->value())) << name;
  }
}

void ExpectSameSim(const MemorySystem& fast, const MemorySystem& ref) {
  EXPECT_EQ(Bits(fast.cpu_cycles()), Bits(ref.cpu_cycles()))
      << "cpu " << fast.cpu_cycles() << " vs " << ref.cpu_cycles();
  EXPECT_EQ(Bits(fast.channel_busy_cycles()), Bits(ref.channel_busy_cycles()))
      << "channel " << fast.channel_busy_cycles() << " vs "
      << ref.channel_busy_cycles();
  EXPECT_EQ(fast.ElapsedCycles(), ref.ElapsedCycles());
  const sim::MemStats a = fast.stats();
  const sim::MemStats b = ref.stats();
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.fabric_reads, b.fabric_reads);
  EXPECT_EQ(a.prefetch_covered, b.prefetch_covered);
  EXPECT_EQ(a.prefetch_uncovered, b.prefetch_uncovered);
  EXPECT_EQ(a.dram_row_hits, b.dram_row_hits);
  EXPECT_EQ(a.dram_row_misses, b.dram_row_misses);
  EXPECT_EQ(a.dram_lines_demand, b.dram_lines_demand);
  EXPECT_EQ(a.dram_lines_gather, b.dram_lines_gather);
  EXPECT_EQ(a.fabric_refills, b.fabric_refills);
  ExpectSameSimMetrics(fast, ref);
}

/// Twin memory systems driven through identical operation sequences:
/// one on the batched fast path, one on the per-line reference walk.
struct TracePair {
  MemorySystem fast;
  MemorySystem ref;

  explicit TracePair(const SimParams& params = SimParams::ZynqA53Defaults())
      : fast(params), ref(params) {
    fast.set_fast_path(true);
    ref.set_fast_path(false);
  }

  uint64_t Allocate(uint64_t bytes,
                    sim::MemClass mc = sim::MemClass::kDram) {
    const uint64_t a = fast.Allocate(bytes, mc);
    const uint64_t b = ref.Allocate(bytes, mc);
    EXPECT_EQ(a, b);
    return a;
  }

  void Read(uint64_t addr, uint64_t bytes) {
    fast.Read(addr, bytes);
    ref.Read(addr, bytes);
  }

  void Gather(uint64_t addr, uint64_t lines) {
    // The fast side uses the closed-form bulk API; the reference side
    // replays the per-line loop the engines use in reference mode.
    const uint64_t fast_misses = fast.GatherRun(addr, lines);
    uint64_t ref_misses = 0;
    for (uint64_t i = 0; i < lines; ++i) {
      bool row_hit = false;
      ref.GatherLine(addr + i * 64, &row_hit);
      if (!row_hit) ++ref_misses;
    }
    EXPECT_EQ(fast_misses, ref_misses);
  }

  void Check() { ExpectSameSim(fast, ref); }
};

TEST(SimEquivalence, SequentialColdThenWarmScan) {
  TracePair t;
  const uint64_t base = t.Allocate(1 << 20);
  // Cold scan in medium-sized chunks (the covered-run closed form).
  for (uint64_t off = 0; off < (1 << 20); off += 4096) {
    t.Read(base + off, 4096);
  }
  t.Check();
  // Immediate warm re-read of a small window: L1/L2 hit paths.
  for (uint64_t off = 0; off < 8192; off += 64) t.Read(base + off, 64);
  t.Check();
  // Whole-region single-call scan (one maximal run).
  t.Read(base, 1 << 20);
  t.Check();
  EXPECT_GT(t.fast.fastpath_lines(), 0u) << "fast path never engaged";
}

TEST(SimEquivalence, SubLineAndUnalignedReads) {
  TracePair t;
  const uint64_t base = t.Allocate(1 << 16);
  // Sub-line repeated reads exercise the hot-line memo.
  for (uint64_t off = 0; off < 1024; off += 8) t.Read(base + off, 8);
  // Unaligned straddling reads.
  for (uint64_t off = 60; off < 4096; off += 120) t.Read(base + off, 16);
  t.Check();
}

TEST(SimEquivalence, StridedScans) {
  TracePair t;
  const uint64_t base = t.Allocate(1 << 20);
  for (uint64_t stride : {128u, 192u, 2048u, 4096u}) {
    for (uint64_t off = 0; off + 64 <= (1 << 18); off += stride) {
      t.Read(base + off, 64);
    }
  }
  t.Check();
}

TEST(SimEquivalence, InterleavedStreams) {
  // Round-robin over k regions: exercises prefetcher stream allocation,
  // steals and the no-bulk-advance guard when windows interleave.
  for (int k = 2; k <= 6; ++k) {
    TracePair t;
    std::vector<uint64_t> bases;
    for (int s = 0; s < k; ++s) bases.push_back(t.Allocate(1 << 16));
    for (uint64_t off = 0; off < (1 << 15); off += 64) {
      for (int s = 0; s < k; ++s) t.Read(bases[s] + off, 64);
    }
    t.Check();
  }
}

TEST(SimEquivalence, FabricRegionReads) {
  TracePair t;
  const uint64_t fb = t.Allocate(1 << 16, sim::MemClass::kFabricBuffer);
  t.Read(fb, 1 << 16);  // cold fabric run
  t.Read(fb, 4096);     // warm re-read (cache hits)
  for (uint64_t off = 0; off < 4096; off += 256) t.Read(fb + off, 64);
  t.Check();
  EXPECT_GT(t.fast.fastpath_lines(), 0u);
}

TEST(SimEquivalence, GatherRuns) {
  TracePair t;
  const uint64_t base = t.Allocate(1 << 20);
  // Long run spanning many DRAM rows, short runs, single lines, and a
  // re-gather that now hits open rows.
  t.Gather(base, 1000);
  t.Gather(base + (1 << 18), 3);
  t.Gather(base + (1 << 19), 1);
  t.Gather(base, 1000);
  // Interleave demand reads with gathers (shared DRAM row-buffer state).
  t.Read(base + (1 << 17), 8192);
  t.Gather(base + (1 << 17), 128);
  t.Check();
}

TEST(SimEquivalence, RandomMixedTrace) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    TracePair t;
    Random rng(seed * 104729 + 7);
    const uint64_t dram = t.Allocate(1 << 20);
    const uint64_t fab = t.Allocate(1 << 18, sim::MemClass::kFabricBuffer);
    for (int op = 0; op < 4000; ++op) {
      switch (rng.Uniform(6)) {
        case 0:  // random small read
          t.Read(dram + rng.Uniform((1 << 20) - 64), 1 + rng.Uniform(64));
          break;
        case 1:  // sequential burst
          t.Read(dram + (rng.Uniform(256) << 12),
                 256 + rng.Uniform(1 << 14));
          break;
        case 2:  // fabric read
          t.Read(fab + rng.Uniform((1 << 18) - 256), 1 + rng.Uniform(256));
          break;
        case 3:  // gather run
          t.Gather(dram + (rng.Uniform(1 << 14) << 6),
                   1 + rng.Uniform(200));
          break;
        case 4:  // strided probe
          for (uint64_t i = 0; i < 32; ++i) {
            t.Read(dram + ((rng.Uniform(64) + i * 17) << 6), 8);
          }
          break;
        case 5:  // occasional reset, then a short cold scan
          if (rng.Bernoulli(0.05)) {
            t.fast.ResetState();
            t.ref.ResetState();
          }
          t.Read(dram + (rng.Uniform(64) << 12), 2048);
          break;
      }
    }
    t.Check();
    EXPECT_GT(t.fast.fastpath_lines(), 0u);
  }
}

TEST(SimEquivalence, RmcParameterPreset) {
  TracePair t(SimParams::RelationalMemoryControllerDefaults());
  const uint64_t base = t.Allocate(1 << 19);
  const uint64_t fb = t.Allocate(1 << 16, sim::MemClass::kFabricBuffer);
  t.Read(base, 1 << 19);
  t.Read(fb, 1 << 16);
  t.Gather(base, 512);
  for (uint64_t off = 0; off < 8192; off += 64) t.Read(base + off, 64);
  t.Check();
  EXPECT_GT(t.fast.fastpath_lines(), 0u);
}

// ---------------------------------------------------------------------
// AddRepeated: chunked repeated-add must match the scalar loop bitwise
// even when the accumulator carries full-mantissa cruft from non-dyadic
// charges and the partial sums cross binade boundaries.

TEST(SimEquivalence, AddRepeatedMatchesScalarLoop) {
  Random rng(42);
  const double charges[] = {2.0, 6.0, 8.0, 10.0, 12.0, 14.0, 0.5,
                            1.25, 110.0, 165.0, 1.2, 1.5, 2.1};
  for (int trial = 0; trial < 200; ++trial) {
    // Build a crufted accumulator the way a real run does: a few
    // thousand non-dyadic adds.
    double acc = 0;
    const int warm = static_cast<int>(rng.Uniform(5000));
    for (int i = 0; i < warm; ++i) acc += 1.2;
    for (double c : charges) {
      const uint64_t n = 1 + rng.Uniform(100000);
      double a = acc;
      double b = acc;
      MemorySystem::AddRepeated(&a, c, n);
      for (uint64_t i = 0; i < n; ++i) b += c;
      ASSERT_EQ(Bits(a), Bits(b))
          << "c=" << c << " n=" << n << " acc=" << acc;
    }
  }
}

TEST(SimEquivalence, AddRepeatedBinadeCrossings) {
  // Accumulators sitting just below a power of two force the
  // boundary-crossing replay immediately.
  for (int exp = 0; exp <= 40; exp += 5) {
    const double pow2 = std::ldexp(1.0, exp);
    for (double start : {pow2 - 2.0, pow2 - 0.5, pow2, pow2 + 0.25}) {
      if (start < 0) continue;
      for (double c : {2.0, 6.0, 10.0, 0.25}) {
        double a = start;
        double b = start;
        MemorySystem::AddRepeated(&a, c, 10000);
        for (int i = 0; i < 10000; ++i) b += c;
        ASSERT_EQ(Bits(a), Bits(b)) << "start=" << start << " c=" << c;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Bulk cache / DRAM building blocks compared against their sequential
// replays on independently warmed twins.

TEST(SimEquivalence, CacheInsertRunMatchesSequentialInserts) {
  Random rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t sets = 1u << (3 + rng.Uniform(5));  // 8..128
    const uint32_t ways = 1 + static_cast<uint32_t>(rng.Uniform(16));
    sim::CacheModel bulk(sets, ways);
    sim::CacheModel seq(sets, ways);
    // Random warm state, identical on both.
    const uint64_t warm_lines = rng.Uniform(4 * sets * ways);
    for (uint64_t i = 0; i < warm_lines; ++i) {
      const uint64_t line = rng.Uniform(8 * sets * ways);
      if (rng.Bernoulli(0.5)) {
        EXPECT_EQ(bulk.Access(line), seq.Access(line));
      } else {
        bulk.Insert(line);
        seq.Insert(line);
      }
    }
    // Bulk insert of a fresh run vs the sequential replay. The run
    // starts above every warmed line so the absence precondition holds.
    const uint64_t first = 1 << 20;
    const uint64_t n = 1 + rng.Uniform(6 * sets * ways);
    bulk.InsertRun(first, n);
    for (uint64_t i = 0; i < n; ++i) seq.Insert(first + i);
    // State equality is observed behaviourally: identical hit/miss and
    // LRU decisions for a long random probe sequence.
    for (int probe = 0; probe < 2000; ++probe) {
      const uint64_t line = rng.Bernoulli(0.6)
                                ? first + rng.Uniform(n + sets)
                                : rng.Uniform(8 * sets * ways);
      if (rng.Bernoulli(0.5)) {
        ASSERT_EQ(bulk.Access(line), seq.Access(line))
            << "sets=" << sets << " ways=" << ways << " line=" << line;
      } else {
        bulk.Insert(line);
        seq.Insert(line);
      }
    }
  }
}

TEST(SimEquivalence, DramAccessRunMatchesSequentialAccesses) {
  Random rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    SimParams params;
    sim::DramModel bulk(params);
    sim::DramModel seq(params);
    // Random pre-state.
    const uint64_t warm = rng.Uniform(64);
    for (uint64_t i = 0; i < warm; ++i) {
      const uint64_t addr = rng.Uniform(1 << 24) & ~63ull;
      bool h1 = false, h2 = false;
      EXPECT_EQ(Bits(bulk.Access(addr, &h1)), Bits(seq.Access(addr, &h2)));
      EXPECT_EQ(h1, h2);
    }
    const uint64_t addr = (rng.Uniform(1 << 16) << 6);
    const uint64_t n = 1 + rng.Uniform(2000);
    uint64_t misses = 0;
    const double bulk_cycles =
        bulk.AccessRun(addr, n, sim::kCacheLineBytes, &misses);
    double seq_cycles = 0;
    uint64_t seq_misses = 0;
    for (uint64_t i = 0; i < n; ++i) {
      bool row_hit = false;
      seq_cycles += seq.Access(addr + i * 64, &row_hit);
      if (!row_hit) ++seq_misses;
    }
    ASSERT_EQ(misses, seq_misses) << "addr=" << addr << " n=" << n;
    ASSERT_EQ(Bits(bulk_cycles), Bits(seq_cycles));
    ASSERT_EQ(bulk.row_hits(), seq.row_hits());
    ASSERT_EQ(bulk.row_misses(), seq.row_misses());
    // Post-state: subsequent accesses must behave identically.
    for (int probe = 0; probe < 200; ++probe) {
      const uint64_t p = rng.Uniform(1 << 24) & ~63ull;
      bool h1 = false, h2 = false;
      ASSERT_EQ(Bits(bulk.Access(p, &h1)), Bits(seq.Access(p, &h2)));
      ASSERT_EQ(h1, h2);
    }
  }
}

// ---------------------------------------------------------------------
// Engine-level equivalence: full query executions on twin rigs (same
// data, same queries, separate MemorySystems) must produce identical
// simulated cycles and stats with the fast path on vs off.

Schema MakeSchema() {
  std::vector<layout::ColumnDef> cols;
  cols.push_back({"k", ColumnType::kInt64});
  cols.push_back({"a", ColumnType::kInt32});
  cols.push_back({"b", ColumnType::kDouble});
  cols.push_back({"d", ColumnType::kDate});
  cols.push_back({"tag", ColumnType::kChar, 4});
  auto schema = Schema::Create(std::move(cols));
  RELFAB_CHECK(schema.ok());
  return std::move(schema).value();
}

RowTable FillTable(const Schema& schema, uint64_t rows,
                   MemorySystem* memory, uint64_t seed) {
  Random rng(seed);
  RowTable table(schema, memory, rows);
  RowBuilder b(&table.schema());
  const char* tags[] = {"aa", "bb", "cc", "dd"};
  for (uint64_t r = 0; r < rows; ++r) {
    b.Reset();
    b.AddInt64(rng.UniformRange(-1000, 1000));
    b.AddInt32(static_cast<int32_t>(rng.UniformRange(-50, 50)));
    b.AddDouble(static_cast<double>(rng.UniformRange(-20, 20)));
    b.AddDate(static_cast<int32_t>(rng.Uniform(3000)));
    b.AddChar(tags[rng.Uniform(4)]);
    table.AppendRow(b.Finish());
  }
  return table;
}

std::vector<QuerySpec> EquivalenceQueries() {
  std::vector<QuerySpec> queries;
  {  // selective projection
    QuerySpec q;
    engine::Predicate p;
    p.column = 1;
    p.op = relmem::CompareOp::kGt;
    p.int_operand = 10;
    p.double_operand = 10;
    q.predicates.push_back(p);
    q.projection = {0, 2};
    queries.push_back(q);
  }
  {  // full-scan aggregate
    QuerySpec q;
    engine::AggSpec sum;
    sum.func = AggFunc::kSum;
    sum.expr = q.exprs.Column(2);
    q.aggregates.push_back(sum);
    engine::AggSpec cnt;
    cnt.func = AggFunc::kCount;
    cnt.expr = -1;
    q.aggregates.push_back(cnt);
    queries.push_back(q);
  }
  {  // grouped aggregate with expression
    QuerySpec q;
    engine::AggSpec agg;
    agg.func = AggFunc::kMax;
    agg.expr = q.exprs.Add(q.exprs.Column(1), q.exprs.Column(2));
    q.aggregates.push_back(agg);
    q.group_by.push_back(4);
    queries.push_back(q);
  }
  {  // unselective predicate + min
    QuerySpec q;
    engine::Predicate p;
    p.column = 0;
    p.op = relmem::CompareOp::kNe;
    p.int_operand = 1 << 20;
    p.double_operand = static_cast<double>(1 << 20);
    q.predicates.push_back(p);
    engine::AggSpec agg;
    agg.func = AggFunc::kMin;
    agg.expr = q.exprs.Column(3);
    q.aggregates.push_back(agg);
    queries.push_back(q);
  }
  return queries;
}

/// One rig per mode; `fast_path` selects the mode under test.
struct Rig {
  MemorySystem memory;
  Schema schema = MakeSchema();
  RowTable table;
  layout::ColumnTable columns;
  relmem::RmEngine rm;

  explicit Rig(bool fast_path, uint64_t rows)
      : table((memory.set_fast_path(fast_path),
               FillTable(schema, rows, &memory, /*seed=*/991))),
        columns(table, &memory),
        rm(&memory) {}
};

TEST(SimEquivalence, EnginesProduceIdenticalCyclesFastVsReference) {
  const uint64_t rows = 6000;
  Rig fast(/*fast_path=*/true, rows);
  Rig ref(/*fast_path=*/false, rows);

  const std::vector<QuerySpec> queries = EquivalenceQueries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QuerySpec& spec = queries[qi];
    SCOPED_TRACE("query=" + std::to_string(qi));

    auto run = [&](auto&& make_engine, const char* label) {
      SCOPED_TRACE(label);
      fast.memory.ResetState();
      auto f = make_engine(fast)->Execute(spec);
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      ref.memory.ResetState();
      auto r = make_engine(ref)->Execute(spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(f->SameAnswer(*r, 1e-12)) << label;
      ExpectSameSim(fast.memory, ref.memory);
    };

    run(
        [](Rig& rig) {
          return std::make_unique<engine::VolcanoEngine>(&rig.table);
        },
        "ROW volcano");
    run(
        [](Rig& rig) {
          return std::make_unique<engine::VectorEngine>(&rig.columns);
        },
        "COL fused");
    run(
        [](Rig& rig) {
          return std::make_unique<engine::VectorEngine>(
              &rig.columns, engine::CostModel::A53Defaults(),
              engine::VectorMode::kColumnAtATime);
        },
        "COL column-at-a-time");
    run(
        [](Rig& rig) {
          return std::make_unique<engine::RmExecEngine>(&rig.table, &rig.rm);
        },
        "RM software");
    run(
        [](Rig& rig) {
          return std::make_unique<engine::RmExecEngine>(
              &rig.table, &rig.rm, engine::CostModel::A53Defaults(),
              /*pushdown_selection=*/true);
        },
        "RM pushdown");
    run(
        [](Rig& rig) {
          return std::make_unique<engine::HybridEngine>(&rig.table, &rig.rm);
        },
        "HYBRID");
  }
  EXPECT_GT(fast.memory.fastpath_lines() + fast.memory.fastpath_memo_hits(),
            0u)
      << "fast path never engaged across the engine sweep";
}

TEST(SimEquivalence, VolcanoRowIdPathIdenticalFastVsReference) {
  const uint64_t rows = 4000;
  Rig fast(/*fast_path=*/true, rows);
  Rig ref(/*fast_path=*/false, rows);
  // A scattered candidate list (sorted, as an index lookup would yield).
  std::vector<uint64_t> ids;
  Random rng(5);
  for (uint64_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.13)) ids.push_back(r);
  }
  QuerySpec spec = EquivalenceQueries()[1];

  fast.memory.ResetState();
  engine::VolcanoEngine fe(&fast.table);
  auto f = fe.ExecuteOnRowIds(spec, ids);
  ASSERT_TRUE(f.ok());
  ref.memory.ResetState();
  engine::VolcanoEngine re(&ref.table);
  auto r = re.ExecuteOnRowIds(spec, ids);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(f->SameAnswer(*r, 1e-12));
  ExpectSameSim(fast.memory, ref.memory);
}

TEST(SimEquivalence, FabricAggregateIdenticalFastVsReference) {
  const uint64_t rows = 5000;
  Rig fast(/*fast_path=*/true, rows);
  Rig ref(/*fast_path=*/false, rows);

  relmem::Geometry g;
  g.columns = {0, 2};
  relmem::HwPredicate p;
  p.column = 1;
  p.op = relmem::CompareOp::kGe;
  p.double_operand = 0;
  g.predicates.push_back(p);
  std::vector<relmem::RmEngine::FabricAgg> aggs;
  aggs.push_back({relmem::RmEngine::FabricAggOp::kSum, 2});
  aggs.push_back({relmem::RmEngine::FabricAggOp::kCount, 0});

  fast.memory.ResetState();
  auto f = fast.rm.AggregateInFabric(fast.table, g, aggs);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ref.memory.ResetState();
  auto r = ref.rm.AggregateInFabric(ref.table, g, aggs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(f->values.size(), r->values.size());
  for (size_t i = 0; i < f->values.size(); ++i) {
    EXPECT_EQ(Bits(f->values[i]), Bits(r->values[i]));
  }
  EXPECT_EQ(f->rows_scanned, r->rows_scanned);
  EXPECT_EQ(f->rows_matched, r->rows_matched);
  ExpectSameSim(fast.memory, ref.memory);
}

}  // namespace
}  // namespace relfab
