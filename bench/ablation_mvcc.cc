// Ablation A5 — MVCC timestamp filtering in hardware (paper §III-C).
// The versioned base data accumulates dead versions; a snapshot scan
// must skip them. In software the CPU reads both timestamps of every
// version and pays the branchy visibility check; with Relational Fabric
// the comparison happens in the transformer and only live rows' columns
// reach the CPU. The win grows with the dead-version fraction.

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "layout/row_table.h"
#include "mvcc/transaction.h"
#include "mvcc/versioned_table.h"
#include "relmem/ephemeral.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::bench {
namespace {

struct Rig {
  /// `updates_per_key` controls the dead-version fraction:
  /// dead/total = updates/(updates+1).
  Rig(uint64_t keys, int updates_per_key) {
    auto schema = layout::Schema::Create(
        {{"id", layout::ColumnType::kInt64, 0},
         {"value", layout::ColumnType::kInt64, 0},
         {"payload", layout::ColumnType::kInt64, 0}});
    auto t = mvcc::VersionedTable::Create(*schema, 0, &memory,
                                          keys * (updates_per_key + 1));
    table = std::make_unique<mvcc::VersionedTable>(std::move(*t));
    tm = std::make_unique<mvcc::TransactionManager>(table.get());
    layout::RowBuilder b(&table->user_schema());
    Random rng(1);
    for (uint64_t k = 0; k < keys; ++k) {
      mvcc::Transaction txn = tm->Begin();
      b.Reset();
      b.AddInt64(static_cast<int64_t>(k))
          .AddInt64(static_cast<int64_t>(rng.Uniform(1000)))
          .AddInt64(0);
      const Status ins = tm->Insert(&txn, b.Finish());
      RELFAB_CHECK(ins.ok()) << "load insert failed: " << ins.ToString();
      const Status commit = tm->Commit(&txn);
      RELFAB_CHECK(commit.ok()) << "load commit failed: "
                                << commit.ToString();
    }
    for (int u = 0; u < updates_per_key; ++u) {
      for (uint64_t k = 0; k < keys; ++k) {
        mvcc::Transaction txn = tm->Begin();
        b.Reset();
        b.AddInt64(static_cast<int64_t>(k))
            .AddInt64(static_cast<int64_t>(rng.Uniform(1000)))
            .AddInt64(u);
        const Status upd = tm->Update(&txn, static_cast<int64_t>(k),
                                      b.Finish());
        RELFAB_CHECK(upd.ok()) << "load update failed: " << upd.ToString();
        const Status commit = tm->Commit(&txn);
        RELFAB_CHECK(commit.ok()) << "load commit failed: "
                                  << commit.ToString();
      }
    }
  }

  /// Snapshot sum(value) with the visibility check in software: the CPU
  /// reads both timestamp fields of every version.
  uint64_t SoftwareScan() {
    memory.ResetState();
    const layout::RowTable& rows = table->rows();
    const uint64_t ts = tm->current_ts();
    int64_t sum = 0;
    for (uint64_t r = 0; r < rows.num_rows(); ++r) {
      memory.Read(rows.FieldAddress(r, table->begin_ts_column()), 8);
      memory.Read(rows.FieldAddress(r, table->end_ts_column()), 8);
      memory.CpuWork(2 * 1.2 + 2 * 2.0);  // two compares, two field loads
      if (table->Visible(r, ts)) {
        memory.Read(rows.FieldAddress(r, 1), 8);
        memory.CpuWork(2.0 + 1.5);  // load + aggregate update
        sum += rows.GetInt(r, 1);
      }
    }
    DoNotOptimize(sum);
    return memory.ElapsedCycles();
  }

  /// The same snapshot sum through an ephemeral view with the timestamp
  /// comparison in the fabric.
  uint64_t HardwareScan() {
    memory.ResetState();
    relmem::RmEngine rm(&memory);
    relmem::Geometry g;
    g.columns = {1};
    g.visibility = table->SnapshotFilter(tm->current_ts());
    auto view = rm.Configure(table->rows(), g);
    RELFAB_CHECK(view.ok());
    int64_t sum = 0;
    for (relmem::EphemeralView::Cursor cur(&*view); cur.Valid();
         cur.Advance()) {
      memory.CpuWork(2.0 + 1.5);
      sum += cur.GetInt(0);
    }
    DoNotOptimize(sum);
    return memory.ElapsedCycles();
  }

  sim::MemorySystem memory;
  std::unique_ptr<mvcc::VersionedTable> table;
  std::unique_ptr<mvcc::TransactionManager> tm;
};

}  // namespace
}  // namespace relfab::bench

int main(int argc, char** argv) {
  using namespace relfab;
  using namespace relfab::bench;
  const BenchArgs args = ParseBenchArgs(&argc, argv);

  const uint64_t keys = FullScale() ? 200000 : 50000;
  ResultTable results(
      "Ablation A5: snapshot scan, software vs in-fabric timestamp "
      "filtering (" + std::to_string(keys) + " live keys)");

  // One worker-private rig per dead-version fraction.
  std::vector<std::unique_ptr<PerWorker<Rig>>> rigs;
  for (int updates : {0, 1, 3, 7}) {
    rigs.push_back(std::make_unique<PerWorker<Rig>>(
        [keys, updates] { return std::make_unique<Rig>(keys, updates); }));
    PerWorker<Rig>* rig = rigs.back().get();
    const std::string x =
        std::to_string(100 * updates / (updates + 1)) + "% dead";
    RegisterSimBenchmark("mvcc/sw/" + x, &results, "software ts check", x,
                         [rig] { return rig->Get().SoftwareScan(); });
    RegisterSimBenchmark("mvcc/hw/" + x, &results, "fabric ts check", x,
                         [rig] { return rig->Get().HardwareScan(); });
  }

  RunSweep(args);
  if (args.list) return 0;
  results.PrintCycles("dead-version fraction");
  results.PrintSpeedupVs("dead-version fraction", "software ts check");

  std::map<std::string, std::string> config{{"keys", std::to_string(keys)}};
  AddStandardConfig(&config, args);
  MaybeWriteReport(args.json_path, "ablation_mvcc", results, config,
                   /*metrics=*/nullptr);
  return 0;
}
