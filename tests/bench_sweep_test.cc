// Tests for the bench sweep harness (bench/bench_util.h): the hard
// contract that a sweep produces bit-identical ResultTable cells at any
// --threads value, plus the harness's flag parsing and the
// missing-cell diagnostics of ResultTable.
//
// The threaded-equivalence test here is the one the CI TSan job builds
// with -fsanitize=thread: it exercises the worker pool, the mutexed
// ResultTable and the lazy PerWorker construction under a real
// multi-engine workload.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

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

constexpr uint64_t kRows = 4096;
constexpr uint32_t kColumns = 8;

layout::RowTable BuildTable(uint64_t rows, sim::MemorySystem* memory) {
  layout::Schema schema =
      layout::Schema::Uniform(kColumns, layout::ColumnType::kInt32);
  layout::RowTable table(std::move(schema), memory, rows);
  layout::RowBuilder builder(&table.schema());
  Random rng(17);
  for (uint64_t r = 0; r < rows; ++r) {
    builder.Reset();
    for (uint32_t c = 0; c < kColumns; ++c) {
      builder.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
    }
    table.AppendRow(builder.Finish());
  }
  return table;
}

struct Rig {
  sim::MemorySystem memory;
  layout::RowTable table;
  layout::ColumnTable columns;
  relmem::RmEngine rm;

  Rig()
      : table(BuildTable(kRows, &memory)),
        columns(table, &memory),
        rm(&memory) {}
};

engine::QuerySpec Projection(uint32_t k) {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < k; ++c) spec.projection.push_back(c);
  return spec;
}

/// Registers the reference workload (3 engines x 8 projectivities = 24
/// cells) into `runner`, simulating on `rigs`, recording into `table`.
void RegisterWorkload(SweepRunner* runner, PerWorker<Rig>* rigs,
                      ResultTable* table) {
  for (uint32_t k = 1; k <= kColumns; ++k) {
    const std::string x = std::to_string(k);
    runner->Register("sweep/ROW/" + x, table, "ROW", x, [rigs, k] {
      Rig& rig = rigs->Get();
      rig.memory.ResetState();
      engine::VolcanoEngine eng(&rig.table);
      return eng.Execute(Projection(k))->sim_cycles;
    });
    runner->Register("sweep/COL/" + x, table, "COL", x, [rigs, k] {
      Rig& rig = rigs->Get();
      rig.memory.ResetState();
      engine::VectorEngine eng(&rig.columns);
      return eng.Execute(Projection(k))->sim_cycles;
    });
    runner->Register("sweep/RM/" + x, table, "RM", x, [rigs, k] {
      Rig& rig = rigs->Get();
      rig.memory.ResetState();
      engine::RmExecEngine eng(&rig.table, &rig.rm);
      return eng.Execute(Projection(k))->sim_cycles;
    });
  }
}

/// Runs the reference workload on a fresh runner/rig set at the given
/// thread count and returns the filled table.
std::unique_ptr<ResultTable> RunAt(int threads) {
  auto table = std::make_unique<ResultTable>("sweep@" +
                                             std::to_string(threads));
  SweepRunner runner;
  PerWorker<Rig> rigs([] { return std::make_unique<Rig>(); });
  RegisterWorkload(&runner, &rigs, table.get());
  BenchArgs args;
  args.threads = threads;
  EXPECT_GE(runner.Run(args), 0);
  return table;
}

TEST(SweepRunnerTest, CellsBitIdenticalAcrossThreadCounts) {
  const std::unique_ptr<ResultTable> serial = RunAt(1);
  const std::unique_ptr<ResultTable> fourway = RunAt(4);
  const std::unique_ptr<ResultTable> eightway = RunAt(8);

  ASSERT_EQ(serial->series_order().size(), 3u);
  ASSERT_EQ(serial->x_order().size(), static_cast<size_t>(kColumns));
  // Registration fixes the merge order: identical at every thread count.
  EXPECT_EQ(serial->series_order(), fourway->series_order());
  EXPECT_EQ(serial->series_order(), eightway->series_order());
  EXPECT_EQ(serial->x_order(), eightway->x_order());

  for (const std::string& series : serial->series_order()) {
    for (const std::string& x : serial->x_order()) {
      ASSERT_TRUE(eightway->Has(series, x)) << series << "/" << x;
      EXPECT_EQ(serial->Get(series, x), fourway->Get(series, x))
          << "threads=4 drifted at (" << series << ", " << x << ")";
      EXPECT_EQ(serial->Get(series, x), eightway->Get(series, x))
          << "threads=8 drifted at (" << series << ", " << x << ")";
      // Sanity: the sweep simulated real work.
      EXPECT_GT(serial->Get(series, x), 0u);
    }
  }
}

TEST(SweepRunnerTest, FilterSelectsSubset) {
  ResultTable table("filtered");
  SweepRunner runner;
  PerWorker<Rig> rigs([] { return std::make_unique<Rig>(); });
  RegisterWorkload(&runner, &rigs, &table);
  BenchArgs args;
  args.threads = 2;
  args.filter = "sweep/RM/";
  runner.Run(args);
  EXPECT_FALSE(table.Has("ROW", "1"));
  EXPECT_FALSE(table.Has("COL", "3"));
  for (uint32_t k = 1; k <= kColumns; ++k) {
    EXPECT_TRUE(table.Has("RM", std::to_string(k)));
  }
}

TEST(ResultTableTest, GetMissingCellDiesNamingTheCell) {
  ResultTable table("Ablation A0");
  table.Add("RM", "4 cols", 123);
  EXPECT_EQ(table.Get("RM", "4 cols"), 123u);
  EXPECT_DEATH(table.Get("RM", "5 cols"),
               "ResultTable 'Ablation A0' has no cell.*series='RM'.*"
               "x='5 cols'");
  EXPECT_DEATH(table.Get("ROW", "4 cols"), "series='ROW'");
}

TEST(BenchArgsTest, ParsesThreadsFilterAndJson) {
  std::vector<std::string> storage = {"bench",        "--threads", "8",
                                      "--filter=RM/", "--json",    "out.json"};
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  const BenchArgs args = ParseBenchArgs(&argc, argv.data());
  EXPECT_EQ(args.threads, 8);
  EXPECT_EQ(args.filter, "RM/");
  EXPECT_EQ(args.json_path, "out.json");
  EXPECT_FALSE(args.list);
  EXPECT_EQ(argc, 1);
}

TEST(BenchArgsTest, JsonFlagRejectsFlagLikePath) {
  std::vector<std::string> storage = {"bench", "--json", "--threads"};
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  EXPECT_EXIT(ConsumePathFlag(&argc, argv.data(), "--json"),
              ::testing::ExitedWithCode(2), "starts with '-'");
}

/// Runs ParseBenchArgs over `args` (argv[0] included).
BenchArgs Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  return ParseBenchArgs(&argc, argv.data());
}

TEST(BenchArgsTest, MalformedValuesExitNamingTheFlag) {
  EXPECT_EXIT(Parse({"bench", "--list", "--filter", "("}),
              ::testing::ExitedWithCode(2), "--filter: bad regex '\\('");
  EXPECT_EXIT(Parse({"bench", "--threads", "3abc"}),
              ::testing::ExitedWithCode(2),
              "--threads: '3abc' is not a number in \\[1, ");
  EXPECT_EXIT(Parse({"bench", "--threads=0"}), ::testing::ExitedWithCode(2),
              "--threads: '0' is not a number");
  EXPECT_EXIT(Parse({"bench", "--json=-report.json"}),
              ::testing::ExitedWithCode(2),
              "--json path '-report.json' starts with '-'");
  EXPECT_EQ(Parse({"bench", "--filter=banks/1", "--threads=3"}).threads, 3);
}

TEST(BenchArgsTest, NumberFlagTakesOnlyANumberInRange) {
  auto kill_p = [](std::vector<std::string> storage) {
    std::vector<char*> argv;
    for (std::string& s : storage) argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());
    double p = 0.5;
    ConsumeNumberFlag(&argc, argv.data(), "--kill-p", &p, 0.0, 1.0);
    EXPECT_EQ(argc, 2);  // argv[0] and "--list" stay for ParseBenchArgs
    return p;
  };
  EXPECT_EQ(kill_p({"bench", "--kill-p", "0.25", "--list"}), 0.25);
  EXPECT_EQ(kill_p({"bench", "--list"}), 0.5);  // absent: unchanged
  for (const char* bad : {"nan", "1.5", "-0.1", "0.2x", ""}) {
    EXPECT_EXIT(kill_p({"bench", "--list", std::string("--kill-p=") + bad}),
                ::testing::ExitedWithCode(2),
                "--kill-p: '.*' is not a number in \\[0, 1\\]")
        << bad;
  }
}

TEST(BenchArgsTest, UnknownFlagExits) {
  EXPECT_EXIT(Parse({"bench", "--benchmark_filter=x"}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

}  // namespace
}  // namespace relfab::bench
