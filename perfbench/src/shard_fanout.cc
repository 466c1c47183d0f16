// shard_fanout: range-sharded `readings` held by two fabrics, telemetry
// on, one client alternating between them on the same statement stream:
//   - a single-host fabric with 8 shards, fanned out over the shard
//     scheduler's host pool;
//   - a 4-node simulated cluster with 2 replicas per shard, round-robin
//     placement and the planner's choice of ship mode per shard.
// Statements are shard-key points that prune to one shard, ranges that
// prune to two, and full fan-out GROUP BYs. This is the only workload
// that runs the shard scheduler and the network model, so it covers both
// fan-out paths and is the only source of host parallelism: the pool has 3
// threads, so the client plus the pool fit in 4 cores.
//
// readings is 200k rows x 20 B = 4 MB, 4x the simulated 1 MiB L2; each
// of the 8 shards is 0.5 MB and fits the L2 of the rig that scans it.

#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "common/random.h"
#include "harness.h"

namespace perfbench {
namespace {

using relfab::Fabric;
using relfab::Random;
using relfab::Status;
using relfab::layout::ColumnType;

constexpr int64_t kRows = 200000;
constexpr int64_t kShards = 8;
constexpr uint64_t kPool = 256;       // distinct statements, cycled
constexpr uint64_t kGuarded = 2 * kPool;  // each statement on both fabrics
constexpr int kHostThreads = 3;

struct Statement {
  std::string sql;
  relfab::engine::QueryResult expected;
};

class ShardFanout final : public Workload {
 public:
  /// Of every 10 statements 3 are points (one shard), 4 ranges of
  /// 1/64..1/8 of the key space across a split point (two shards) and 3
  /// full fan-outs; widths and filters cycle through fixed values, and
  /// the seed draws the order, the keys and the split points.
  explicit ShardFanout(uint64_t seed) : seed_(seed) {
    Random rng(seed * 0x9E3779B97F4A7C15ull + 37);
    std::vector<int> kinds;
    while (kinds.size() < kPool) {
      for (int k : {0, 0, 0, 1, 1, 1, 1, 2, 2, 2}) kinds.push_back(k);
    }
    kinds.resize(kPool);
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.Uniform(i)]);
    }
    uint64_t nth[3] = {};
    for (int kind : kinds) {
      const auto j = static_cast<int64_t>(nth[kind]++);
      Statement s;
      if (kind == 0) {
        s.sql = "SELECT COUNT(*), SUM(temp), MAX(hum) FROM readings WHERE "
                "ts = " + std::to_string(rng.Uniform(kRows));
      } else if (kind == 1) {
        const int64_t width = kRows / 64 * (1 + j % 8);
        const int64_t split =
            kRows / kShards * rng.UniformRange(1, kShards - 1);
        const int64_t lo = split - rng.UniformRange(1, width - 1);
        s.sql = "SELECT AVG(temp), MAX(hum), COUNT(*) FROM readings WHERE "
                "ts >= " + std::to_string(lo) + " AND ts < " +
                std::to_string(lo + width);
      } else {
        s.sql = "SELECT sensor, COUNT(*), SUM(temp) FROM readings WHERE "
                "hum < " + std::to_string(10 + 10 * (j % 9)) +
                " GROUP BY sensor";
      }
      pool_.push_back(std::move(s));
    }
  }

  void Setup() override {
    local_ = {};  // the previous set-up's memory goes first
    cluster_ = {};
    local_ = Build(/*nodes=*/0, /*replicas=*/1);
    cluster_ = Build(/*nodes=*/4, /*replicas=*/2);
  }

  void ComputeReferences() override {
    auto* table = local_.fabric->GetShardedTable("readings").value();
    relfab::query::Parser parser(&local_.fabric->catalog());
    for (Statement& s : pool_) {
      auto parsed = parser.Parse(s.sql);
      Must(parsed.status());
      s.expected = ReferenceAnswer(*table, parsed->spec);
    }
  }

  uint64_t guarded_ops() const override { return kGuarded; }

  int64_t Prepare(uint64_t i) override {
    Side& side = SideOf(i);
    side.fabric->memory().ResetState();
    side.client->Mark();
    return 0;
  }

  void Run(uint64_t i, SpanLog* spans) override {
    Side& side = SideOf(i);
    last_ = side.client->Execute(
        pool_[(i / 2) % kPool].sql, {}, spans, i,
        i % 2 == 0 ? "exec.local_fanout" : "exec.cluster_fanout");
  }

  bool Check(uint64_t i, uint64_t* sim_cycles, uint64_t* fp) override {
    if (!last_->ok()) {
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   last_->status().ToString().c_str());
      return false;
    }
    Side& side = SideOf(i);
    const Statement& s = pool_[(i / 2) % kPool];
    const relfab::query::Plan& plan = (*last_)->plan;
    relfab::engine::QueryResult expected = s.expected;
    const auto* table = side.fabric->GetShardedTable("readings").value();
    expected.rows_scanned = 0;
    for (uint32_t id : plan.shards.shard_ids) {
      expected.rows_scanned += table->shard(id).num_rows();
    }
    *sim_cycles = (*last_)->result.sim_cycles;
    *fp = side.client->Account(**last_, i < kGuarded, &counters_);
    if (!plan.shards.enabled || plan.shards.distributed != (i % 2 == 1) ||
        !(*last_)->result.SameAnswer(expected)) {
      std::fprintf(stderr, "op %llu wrong answer: %s\n  got      %s\n  "
                   "expected %s\n",
                   static_cast<unsigned long long>(i), s.sql.c_str(),
                   (*last_)->result.ToString().c_str(),
                   expected.ToString().c_str());
      return false;
    }
    return true;
  }

  bool Finish() override { return true; }

 private:
  struct Side {
    std::unique_ptr<Fabric> fabric;
    std::unique_ptr<SqlClient> client;
  };

  Side& SideOf(uint64_t i) { return i % 2 == 0 ? local_ : cluster_; }

  /// A fabric holding `readings`; nodes > 0 configures a cluster.
  Side Build(uint32_t nodes, uint32_t replicas) {
    Side side;
    side.fabric = std::make_unique<Fabric>();
    Fabric& f = *side.fabric;
    f.shard_scheduler().set_host_threads(kHostThreads);
    auto schema = relfab::layout::Schema::Create({
        {"ts", ColumnType::kInt64, 0},
        {"sensor", ColumnType::kInt32, 0},
        {"temp", ColumnType::kInt32, 0},
        {"hum", ColumnType::kInt32, 0},
    });
    Must(schema.status());
    std::vector<int64_t> splits;
    for (int64_t s = 1; s < kShards; ++s) splits.push_back(s * kRows / kShards);
    auto* table = f.CreateShardedTable(
                       "readings", std::move(*schema), "ts",
                       {.splits = splits,
                        .replicas = replicas,
                        .placement = relfab::net::Placement::kRoundRobin})
                      .value();
    Random rng(seed_);
    relfab::layout::RowBuilder b(&table->schema());
    for (int64_t ts = 0; ts < kRows; ++ts) {
      b.Reset();
      b.AddInt64(ts)
          .AddInt32(static_cast<int32_t>(rng.Uniform(64)))
          .AddInt32(static_cast<int32_t>(rng.UniformRange(-20, 45)))
          .AddInt32(static_cast<int32_t>(rng.Uniform(100)));
      table->Append(b.Finish());
    }
    if (nodes > 0) {
      relfab::net::ClusterConfig cluster;
      cluster.nodes = nodes;
      Must(f.ConfigureCluster(cluster));
    }
    f.EnableTelemetry();
    side.client = std::make_unique<SqlClient>(&f);
    // Warm-up: a full fan-out builds every host worker's rig.
    f.memory().ResetState();
    Must(f.ExecuteSql("SELECT COUNT(*) FROM readings").status());
    return side;
  }

  uint64_t seed_;
  std::vector<Statement> pool_;
  Side local_;
  Side cluster_;
  std::optional<relfab::StatusOr<Fabric::SqlResult>> last_;
};

}  // namespace

std::unique_ptr<Workload> MakeShardFanout(uint64_t seed) {
  return std::make_unique<ShardFanout>(seed);
}

}  // namespace perfbench
