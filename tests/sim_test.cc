#include <gtest/gtest.h>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/memory_system.h"
#include "sim/params.h"
#include "sim/prefetcher.h"

namespace relfab::sim {
namespace {

// ---------------------------------------------------------------- cache

TEST(CacheModelTest, MissThenHit) {
  CacheModel cache(4, 2);
  EXPECT_FALSE(cache.Access(100));
  cache.Insert(100);
  EXPECT_TRUE(cache.Access(100));
}

TEST(CacheModelTest, ContainsDoesNotTouchLru) {
  CacheModel cache(1, 2);
  cache.Insert(0);
  cache.Insert(1);
  EXPECT_TRUE(cache.Contains(0));  // does not refresh line 0
  cache.Insert(2);                 // evicts LRU = line 0
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(CacheModelTest, LruEviction) {
  CacheModel cache(1, 2);  // one set, two ways
  cache.Insert(10);
  cache.Insert(20);
  EXPECT_TRUE(cache.Access(10));  // 10 becomes MRU
  cache.Insert(30);               // evicts 20
  EXPECT_TRUE(cache.Contains(10));
  EXPECT_FALSE(cache.Contains(20));
  EXPECT_TRUE(cache.Contains(30));
}

TEST(CacheModelTest, SetsIsolateLines) {
  CacheModel cache(2, 1);  // lines map to sets by low bit
  cache.Insert(2);         // set 0
  cache.Insert(3);         // set 1
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  cache.Insert(4);  // set 0, evicts 2 only
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(CacheModelTest, InsertExistingRefreshesInsteadOfDuplicating) {
  CacheModel cache(1, 2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(1);  // refresh, not duplicate
  cache.Insert(3);  // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(CacheModelTest, FlushEmptiesEverything) {
  CacheModel cache(4, 4);
  for (uint64_t l = 0; l < 16; ++l) cache.Insert(l);
  cache.Flush();
  for (uint64_t l = 0; l < 16; ++l) EXPECT_FALSE(cache.Contains(l));
}

class CacheGeometryTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(CacheGeometryTest, CapacityIsSetsTimesWays) {
  const auto [sets, ways] = GetParam();
  CacheModel cache(sets, ways);
  const uint64_t capacity = static_cast<uint64_t>(sets) * ways;
  // Fill exactly to capacity with lines that spread across sets.
  for (uint64_t l = 0; l < capacity; ++l) cache.Insert(l);
  for (uint64_t l = 0; l < capacity; ++l) {
    EXPECT_TRUE(cache.Contains(l)) << "line " << l;
  }
  // One more line per set evicts exactly one resident line per set.
  for (uint64_t l = capacity; l < capacity + sets; ++l) cache.Insert(l);
  uint64_t resident = 0;
  for (uint64_t l = 0; l < capacity + sets; ++l) {
    resident += cache.Contains(l) ? 1 : 0;
  }
  EXPECT_EQ(resident, capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(2u, 4u),
                      std::make_pair(8u, 2u), std::make_pair(128u, 4u),
                      std::make_pair(1024u, 16u)));

// ----------------------------------------------------------- prefetcher

TEST(PrefetcherTest, SingleStreamTrainsThenCovers) {
  StreamPrefetcher pf(SimParams::ZynqA53Defaults());
  EXPECT_FALSE(pf.OnDemandMiss(100));  // allocate
  EXPECT_FALSE(pf.OnDemandMiss(101));  // training
  EXPECT_FALSE(pf.OnDemandMiss(102));  // training
  EXPECT_TRUE(pf.OnDemandMiss(103));   // covered
  EXPECT_TRUE(pf.OnDemandMiss(104));
}

TEST(PrefetcherTest, FourStreamsAllCovered) {
  SimParams p;
  StreamPrefetcher pf(p);
  // Interleave 4 streams; after training all are covered.
  const uint64_t bases[] = {0, 1000, 2000, 3000};
  for (int step = 0; step < 3; ++step) {
    for (uint64_t base : bases) pf.OnDemandMiss(base + step);
  }
  for (int step = 3; step < 10; ++step) {
    for (uint64_t base : bases) {
      EXPECT_TRUE(pf.OnDemandMiss(base + step)) << base << "+" << step;
    }
  }
}

TEST(PrefetcherTest, FiveStreamsThrash) {
  SimParams p;  // 4-entry table
  StreamPrefetcher pf(p);
  const uint64_t bases[] = {0, 1000, 2000, 3000, 4000};
  int covered = 0;
  for (int step = 0; step < 20; ++step) {
    for (uint64_t base : bases) {
      covered += pf.OnDemandMiss(base + step) ? 1 : 0;
    }
  }
  // Round-robin over 5 streams with a 4-entry LRU table evicts every
  // stream before it is reused: nothing is ever covered.
  EXPECT_EQ(covered, 0);
}

TEST(PrefetcherTest, SmallStrideWithinWindowStillMatches) {
  SimParams p;
  StreamPrefetcher pf(p);  // match window 4 lines
  pf.OnDemandMiss(0);
  pf.OnDemandMiss(2);  // stride-2 stream
  pf.OnDemandMiss(4);
  EXPECT_TRUE(pf.OnDemandMiss(6));
}

TEST(PrefetcherTest, LargeStrideNeverCovers) {
  SimParams p;
  StreamPrefetcher pf(p);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(pf.OnDemandMiss(static_cast<uint64_t>(i) * 100));
  }
}

TEST(PrefetcherTest, ResetForgetsStreams) {
  SimParams p;
  StreamPrefetcher pf(p);
  for (int i = 0; i < 5; ++i) pf.OnDemandMiss(i);
  pf.Reset();
  EXPECT_FALSE(pf.OnDemandMiss(5));  // would be covered without Reset
}

class PrefetcherCapacityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PrefetcherCapacityTest, CoverageCliffAtCapacity) {
  SimParams p;
  p.prefetch_streams = GetParam();
  // `capacity` streams are all covered after training...
  {
    StreamPrefetcher pf(p);
    for (int step = 0; step < 10; ++step) {
      for (uint32_t s = 0; s < p.prefetch_streams; ++s) {
        pf.OnDemandMiss(s * 10000 + step);
      }
    }
    uint32_t covered = 0;
    for (uint32_t s = 0; s < p.prefetch_streams; ++s) {
      covered += pf.OnDemandMiss(s * 10000 + 10) ? 1 : 0;
    }
    EXPECT_EQ(covered, p.prefetch_streams);
  }
  // ...capacity+1 streams are never covered.
  {
    StreamPrefetcher pf(p);
    uint32_t covered = 0;
    for (int step = 0; step < 10; ++step) {
      for (uint32_t s = 0; s < p.prefetch_streams + 1; ++s) {
        covered += pf.OnDemandMiss(s * 10000 + step) ? 1 : 0;
      }
    }
    EXPECT_EQ(covered, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, PrefetcherCapacityTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ----------------------------------------------------------------- dram

TEST(DramTest, RowHitAfterOpen) {
  DramModel dram(SimParams::ZynqA53Defaults());
  bool hit = true;
  dram.Access(0, &hit);
  EXPECT_FALSE(hit);  // cold: row miss
  dram.Access(64, &hit);
  EXPECT_TRUE(hit);  // same 2 KB row
  EXPECT_EQ(dram.row_hits(), 1u);
  EXPECT_EQ(dram.row_misses(), 1u);
}

TEST(DramTest, DifferentRowsOnSameBankConflict) {
  SimParams p;
  DramModel dram(p);
  const uint64_t banks = p.dram_banks;
  const uint64_t row_bytes = p.dram_row_bytes;
  bool hit = true;
  dram.Access(0, &hit);
  EXPECT_FALSE(hit);
  // Same bank (row index differs by `banks`), different row: miss.
  dram.Access(banks * row_bytes, &hit);
  EXPECT_FALSE(hit);
  // Back to the original row: its buffer was replaced -> miss again.
  dram.Access(0, &hit);
  EXPECT_FALSE(hit);
}

TEST(DramTest, AdjacentRowsLandOnDifferentBanks) {
  SimParams p;
  DramModel dram(p);
  bool hit = false;
  dram.Access(0, &hit);
  dram.Access(p.dram_row_bytes, &hit);  // next row -> next bank
  EXPECT_FALSE(hit);
  dram.Access(0, &hit);  // original bank still has its row open
  EXPECT_TRUE(hit);
}

TEST(DramTest, LatenciesMatchParams) {
  SimParams p;
  DramModel dram(p);
  EXPECT_DOUBLE_EQ(dram.Access(0), p.dram_row_miss_cycles);
  EXPECT_DOUBLE_EQ(dram.Access(64), p.dram_row_hit_cycles);
}

TEST(DramTest, ResetClosesRows) {
  DramModel dram(SimParams::ZynqA53Defaults());
  dram.Access(0);
  dram.Reset();
  bool hit = true;
  dram.Access(0, &hit);
  EXPECT_FALSE(hit);
}

// -------------------------------------------------------- memory system

TEST(MemorySystemTest, AllocationsAreLineAlignedAndDisjoint) {
  MemorySystem mem;
  const uint64_t a = mem.Allocate(100);
  const uint64_t b = mem.Allocate(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(MemorySystemTest, FabricAllocationsLiveAboveFabricBase) {
  MemorySystem mem;
  EXPECT_LT(mem.Allocate(64), MemorySystem::kFabricBase);
  EXPECT_GE(mem.Allocate(64, MemClass::kFabricBuffer),
            MemorySystem::kFabricBase);
}

TEST(MemorySystemTest, RepeatedReadHitsL1) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64);
  mem.Read(addr, 8);
  const MemStats first = mem.stats();
  EXPECT_EQ(first.l1_misses, 1u);
  mem.Read(addr, 8);
  const MemStats second = mem.stats();
  EXPECT_EQ(second.l1_hits, 1u);
  EXPECT_EQ(second.l1_misses, 1u);
}

TEST(MemorySystemTest, SequentialScanGetsPrefetchCoverage) {
  MemorySystem mem;
  const uint64_t lines = 1000;
  const uint64_t addr = mem.Allocate(lines * 64);
  for (uint64_t l = 0; l < lines; ++l) mem.Read(addr + l * 64, 64);
  const MemStats s = mem.stats();
  EXPECT_GT(s.prefetch_covered, lines * 9 / 10);
}

TEST(MemorySystemTest, ScatteredReadsAreNotCovered) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 64 * 1024);
  for (uint64_t i = 0; i < 1000; ++i) {
    mem.Read(addr + (i * 37 % 1024) * 4096, 8);  // pseudo-random pages
  }
  const MemStats s = mem.stats();
  EXPECT_EQ(s.prefetch_covered, 0u);
}

TEST(MemorySystemTest, SequentialScanIsCheaperThanScattered) {
  SimParams p;
  MemorySystem seq_mem(p), scat_mem(p);
  const uint64_t n = 4096;
  const uint64_t a1 = seq_mem.Allocate(n * 64);
  const uint64_t a2 = scat_mem.Allocate(n * 4096);
  for (uint64_t i = 0; i < n; ++i) seq_mem.Read(a1 + i * 64, 8);
  for (uint64_t i = 0; i < n; ++i) {
    scat_mem.Read(a2 + ((i * 2654435761u) % n) * 4096, 8);
  }
  EXPECT_LT(seq_mem.ElapsedCycles(), scat_mem.ElapsedCycles() / 3);
}

TEST(MemorySystemTest, FabricReadsBypassDramChannel) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 100, MemClass::kFabricBuffer);
  for (int l = 0; l < 100; ++l) mem.Read(addr + l * 64, 64);
  const MemStats s = mem.stats();
  EXPECT_EQ(s.fabric_reads, 100u);
  EXPECT_EQ(s.dram_lines_demand, 0u);
  EXPECT_DOUBLE_EQ(mem.channel_busy_cycles(), 0.0);
}

TEST(MemorySystemTest, GatherChargesChannelButNotCaches) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 10);
  bool hit = false;
  for (int l = 0; l < 10; ++l) mem.GatherLine(addr + l * 64, &hit);
  const MemStats s = mem.stats();
  EXPECT_EQ(s.dram_lines_gather, 10u);
  EXPECT_GT(mem.channel_busy_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(mem.cpu_cycles(), 0.0);
  // A demand read of the same line still misses the caches.
  mem.Read(addr, 8);
  EXPECT_EQ(mem.stats().l1_misses, 1u);
}

TEST(MemorySystemTest, ElapsedIsMaxOfCpuAndChannel) {
  MemorySystem mem;
  mem.CpuWork(1000);
  EXPECT_EQ(mem.ElapsedCycles(), 1000u);
  const uint64_t addr = mem.Allocate(64 * 1000);
  bool hit = false;
  for (int l = 0; l < 1000; ++l) mem.GatherLine(addr + l * 64, &hit);
  EXPECT_EQ(mem.ElapsedCycles(),
            static_cast<uint64_t>(mem.channel_busy_cycles()));
  EXPECT_GT(mem.channel_busy_cycles(), 1000.0);
}

TEST(MemorySystemTest, ResetTimingKeepsCacheState) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64);
  mem.Read(addr, 8);
  mem.ResetTiming();
  EXPECT_EQ(mem.ElapsedCycles(), 0u);
  mem.Read(addr, 8);  // still cached
  EXPECT_EQ(mem.stats().l1_hits, 1u);
  EXPECT_EQ(mem.stats().l1_misses, 0u);
}

TEST(MemorySystemTest, ResetStateColdsTheCaches) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64);
  mem.Read(addr, 8);
  mem.ResetState();
  mem.Read(addr, 8);
  EXPECT_EQ(mem.stats().l1_misses, 1u);
}

TEST(MemorySystemTest, StatsAccumulateAndPrint) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 8);
  for (int l = 0; l < 8; ++l) mem.Read(addr + l * 64, 64);
  MemStats s = mem.stats();
  EXPECT_EQ(s.l1_misses, 8u);
  EXPECT_EQ(s.dram_lines_demand, 8u);
  EXPECT_FALSE(s.ToString().empty());
  MemStats sum;
  sum += s;
  sum += s;
  EXPECT_EQ(sum.l1_misses, 16u);
}

// The volcano scan chunks its rows by SimParams::l1_mru_span_bytes(), so
// its counted L1 hits rely on this: one demand Read of that many bytes,
// from any offset within a line, leaves every line it touched the MRU
// of its set. A whole l1_sets() lines' worth does not. Both simulator
// modes must agree.
TEST(MemorySystemTest, MruSpanBoundHoldsAtEveryLineOffset) {
  const SimParams params = SimParams::ZynqA53Defaults();
  const uint64_t bound = params.l1_mru_span_bytes();
  const uint64_t all_sets = uint64_t{params.l1_sets()} * kCacheLineBytes;
  for (const bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "fast path" : "reference path");
    bool all_sets_broke = false;
    for (uint64_t offset = 0; offset < kCacheLineBytes; ++offset) {
      for (const uint64_t bytes : {bound, all_sets}) {
        MemorySystem mem(params);
        mem.set_fast_path(fast_path);
        const uint64_t addr = mem.Allocate(2 * all_sets) + offset;
        mem.Read(addr, bytes);
        const bool mru = mem.DebugCheckMruResident(addr, bytes);
        if (bytes == bound) {
          EXPECT_TRUE(mru) << "offset " << offset;
        } else {
          all_sets_broke = all_sets_broke || !mru;
        }
      }
    }
    EXPECT_TRUE(all_sets_broke);
  }
}

TEST(SequentialReaderTest, ChargesOncePerLine) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 4);
  SequentialReader reader(&mem);
  for (uint64_t off = 0; off < 64 * 4; off += 4) {
    reader.Read(addr + off, 4);
  }
  const MemStats s = mem.stats();
  EXPECT_EQ(s.l1_hits + s.l1_misses, 4u);  // one access per line
}

TEST(SequentialReaderTest, JumpsSkipUntouchedLines) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 10);
  SequentialReader reader(&mem);
  reader.Read(addr, 4);            // line 0
  reader.Read(addr + 5 * 64, 4);   // line 5 only — lines 1-4 untouched
  const MemStats s = mem.stats();
  EXPECT_EQ(s.l1_misses, 2u);
}

TEST(SequentialReaderTest, StraddlingReadChargesBothLines) {
  MemorySystem mem;
  const uint64_t addr = mem.Allocate(64 * 2);
  SequentialReader reader(&mem);
  reader.Read(addr + 60, 8);  // spans lines 0 and 1
  EXPECT_EQ(mem.stats().l1_misses, 2u);
}

}  // namespace
}  // namespace relfab::sim
