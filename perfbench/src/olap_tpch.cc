// olap_tpch: the paper's Fig. 5/7 traffic over one unsharded lineitem
// table, telemetry off. Statements are TPC-H Q1 and Q6 with drawn
// constants, projections over 1..8 columns, selective conjunctions and a
// minority of l_orderkey point lookups; a fixed share runs with a forced
// backend cycling ROW/COL/RM, because the planner alone never picks ROW.
//
// lineitem is 80k rows x 106 B = 8.5 MB, 8x the simulated 1 MiB L2 and
// 4x the 2 MiB fill buffer, so scans are movement-bound. Nearly all host
// CPU goes to the engines, the simulator and the RM model; parse and
// plan are under 1%. (200k rows would cost ~27 ms of CPU per statement,
// too slow for the 1000 statements a run needs.)

#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "common/random.h"
#include "harness.h"
#include "tpch/dbgen.h"

namespace perfbench {
namespace {

using relfab::Fabric;
using relfab::Random;
using relfab::exec::Backend;
using relfab::tpch::DayNumber;

constexpr uint64_t kRows = 80000;
constexpr uint64_t kPool = 250;      // distinct statements, cycled
constexpr uint64_t kGuarded = 1000;  // four times through the pool

const char* const kProjectable[] = {
    "l_extendedprice", "l_quantity", "l_discount",   "l_shipdate",
    "l_tax",           "l_partkey",  "l_suppkey",    "l_receiptdate",
    "l_commitdate",    "l_orderkey", "l_linenumber",
};

struct Statement {
  std::string sql;
  relfab::exec::QueryOptions options;
  int64_t point_key = -1;  // l_orderkey of a point lookup, else -1
  relfab::engine::QueryResult expected;
  uint64_t index_rows = 0;  // rows an index probe of point_key returns
};

class OlapTpch final : public Workload {
 public:
  explicit OlapTpch(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    fabric_ = std::make_unique<Fabric>();
    Must(fabric_
             ->AdoptTable("lineitem", relfab::tpch::GenerateLineitem(
                                          kRows, seed_, &fabric_->memory()))
             .status());
    Must(fabric_->MaterializeColumnarCopy("lineitem"));
    Must(fabric_->CreateIndex("lineitem", "l_orderkey"));
    Must(fabric_->AnalyzeTable("lineitem"));
    table_ = fabric_->GetTable("lineitem").value();
    client_ = std::make_unique<SqlClient>(fabric_.get());
    MakeStatements();
    // Warm-up: one statement on each backend the stream forces.
    for (Backend b : {Backend::kRow, Backend::kColumn,
                      Backend::kRelationalMemory}) {
      fabric_->memory().ResetState();
      Must(fabric_->ExecuteSql(pool_[0].sql, {.forced_backend = b}).status());
    }
  }

  void ComputeReferences() override {
    // l_orderkey ascends with the row number, so an order's lines are
    // one run of rows.
    for (Statement& s : pool_) {
      std::vector<uint64_t> rows;
      if (s.point_key >= 0) {
        for (uint64_t r = 0; r < kRows; ++r) {
          if (table_->GetInt(r, 0) == s.point_key) rows.push_back(r);
        }
      }
      auto parsed = relfab::query::Parser(&fabric_->catalog()).Parse(s.sql);
      Must(parsed.status());
      s.expected = ReferenceAnswer(*table_, parsed->spec,
                                   s.point_key >= 0 ? &rows : nullptr);
      s.index_rows = rows.size();
    }
  }

  uint64_t guarded_ops() const override { return kGuarded; }

  int64_t Prepare(uint64_t) override {
    fabric_->memory().ResetState();
    client_->Mark();
    return 0;
  }

  void Run(uint64_t i, SpanLog* spans) override {
    const Statement& s = pool_[i % kPool];
    last_ = client_->Execute(s.sql, s.options, spans, i);
  }

  bool Check(uint64_t i, uint64_t* sim_cycles, uint64_t* fp) override {
    if (!last_->ok()) {
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   last_->status().ToString().c_str());
      return false;
    }
    const Statement& s = pool_[i % kPool];
    relfab::engine::QueryResult expected = s.expected;
    expected.rows_scanned =
        (*last_)->plan.backend == Backend::kIndex ? s.index_rows : kRows;
    *sim_cycles = (*last_)->result.sim_cycles;
    *fp = client_->Account(**last_, i < kGuarded, &counters_);
    if (!(*last_)->result.SameAnswer(expected)) {
      std::fprintf(stderr,
                   "op %llu wrong answer: %s\n  got      %s\n  expected %s\n",
                   static_cast<unsigned long long>(i), s.sql.c_str(),
                   (*last_)->result.ToString().c_str(),
                   expected.ToString().c_str());
      return false;
    }
    return true;
  }

  bool Finish() override { return true; }

 private:
  /// The pool holds every statement kind in a fixed proportion, and of
  /// each kind 3 in 10 run forced, one each on ROW, COL and RM, so every
  /// seed runs the same mix; the seed draws the order and the constants.
  void MakeStatements() {
    enum Kind { kPoint, kQ1, kQ6, kProject, kSelective, kKinds };
    static constexpr int kPer50[kKinds] = {6, 6, 18, 12, 8};
    static constexpr Backend kForced[] = {Backend::kRow, Backend::kColumn,
                                          Backend::kRelationalMemory};
    Random rng(seed_ * 0x9E3779B97F4A7C15ull + 11);
    std::vector<int> kinds;
    while (kinds.size() < kPool) {
      for (int k = 0; k < kKinds; ++k) kinds.insert(kinds.end(), kPer50[k], k);
    }
    kinds.resize(kPool);
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.Uniform(i)]);
    }
    const int64_t max_order = table_->GetInt(kRows - 1, 0);
    const int32_t q1_base = DayNumber(1998, 12, 1);
    uint64_t nth[kKinds] = {};
    pool_.clear();
    for (int kind : kinds) {
      const uint64_t j = nth[kind]++;
      Statement s;
      switch (kind) {
        case kPoint:
          s.point_key = rng.UniformRange(1, max_order);
          s.sql = "SELECT COUNT(*), SUM(l_quantity), MAX(l_extendedprice) "
                  "FROM lineitem WHERE l_orderkey = " +
                  std::to_string(s.point_key);
          break;
        case kQ1:
          s.sql =
              "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
              "SUM(l_extendedprice), SUM(l_extendedprice * (1 - l_discount * "
              "0.01)), SUM(l_extendedprice * (1 - l_discount * 0.01) * (1 + "
              "l_tax * 0.01)), AVG(l_quantity), AVG(l_extendedprice), "
              "AVG(l_discount), COUNT(*) FROM lineitem WHERE l_shipdate <= " +
              std::to_string(q1_base - rng.UniformRange(60, 120)) +
              " GROUP BY l_returnflag, l_linestatus";
          break;
        case kQ6: {
          const int year = static_cast<int>(rng.UniformRange(1993, 1997));
          const int64_t disc = rng.UniformRange(2, 9);
          s.sql = "SELECT SUM(l_extendedprice * l_discount * 0.01) FROM "
                  "lineitem WHERE l_shipdate >= " +
                  std::to_string(DayNumber(year, 1, 1)) +
                  " AND l_shipdate < " +
                  std::to_string(DayNumber(year + 1, 1, 1)) +
                  " AND l_discount >= " + std::to_string(disc - 1) +
                  " AND l_discount <= " + std::to_string(disc + 1) +
                  " AND l_quantity < " +
                  std::to_string(rng.UniformRange(24, 25));
          break;
        }
        case kProject: {
          const uint64_t first = rng.Uniform(std::size(kProjectable));
          s.sql = "SELECT ";
          for (uint64_t c = 0; c <= j % 8; ++c) {
            if (c > 0) s.sql += ", ";
            s.sql += kProjectable[(first + c) % std::size(kProjectable)];
          }
          s.sql += " FROM lineitem WHERE l_shipdate >= " +
                   std::to_string(rng.UniformRange(0, 2400));
          break;
        }
        default: {
          const int64_t lo = rng.UniformRange(0, 2000);
          s.sql = "SELECT COUNT(*), SUM(l_extendedprice), MAX(l_tax) FROM "
                  "lineitem WHERE l_quantity = " +
                  std::to_string(rng.UniformRange(1, 50)) +
                  " AND l_discount = " +
                  std::to_string(rng.UniformRange(0, 10)) +
                  " AND l_shipdate >= " + std::to_string(lo) +
                  " AND l_shipdate < " +
                  std::to_string(lo + rng.UniformRange(100, 600));
        }
      }
      if (kind != kPoint && j % 10 < 3) {
        s.options.forced_backend = kForced[j % 10];
      }
      pool_.push_back(std::move(s));
    }
  }

  uint64_t seed_;
  std::unique_ptr<Fabric> fabric_;
  const relfab::layout::RowTable* table_ = nullptr;
  std::unique_ptr<SqlClient> client_;
  std::vector<Statement> pool_;
  std::optional<relfab::StatusOr<Fabric::SqlResult>> last_;
};

}  // namespace

std::unique_ptr<Workload> MakeOlapTpch(uint64_t seed) {
  return std::make_unique<OlapTpch>(seed);
}

}  // namespace perfbench
