#ifndef RELFAB_EXEC_SHARD_SCHEDULER_H_
#define RELFAB_EXEC_SHARD_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "engine/cost_model.h"
#include "engine/query.h"
#include "exec/exec_context.h"
#include "exec/options.h"
#include "net/network_model.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "shard/sharded_table.h"
#include "sim/memory_system.h"
#include "sim/params.h"

namespace relfab::exec {

/// Partial-aggregate slots the shard fan-out computes per shard (and per
/// group) for `spec`: one per aggregate, AVG carried as its SUM, plus
/// one hidden COUNT shared by every AVG as their denominator. The
/// scheduler decomposes by it; the planner prices shipped partials by it.
size_t PartialSlotCount(const engine::QuerySpec& spec);

/// The shard fan-out: runs one scan per serving shard on a pool of host
/// worker threads and merges the partial results shard-major. One path
/// serves both a single host and a configured cluster (ConfigureCluster,
/// docs/scaling.md "Distributed fabric"). Only the steps that exist on a
/// network check the topology: node liveness and "node.kill", ship-mode
/// pricing, the net.* counters and digests, and the node=/ship= profile
/// annotations.
///
/// Determinism contract (shard_exec_test and net_test pin it): answers
/// AND simulated cycles are bit-identical at any host thread count.
/// Three mechanisms deliver it:
///
///  1. Worker-private sim rigs (bench_util.h's PerWorker pattern): each
///     host worker owns a private MemorySystem + RmEngine, so shard
///     scans never share simulator state.
///  2. MemorySystem::ResetAddressSpace() at the head of every shard
///     task: the rig is returned to the cold, freshly-booted state —
///     including the simulated allocator — so a shard's cycles are a
///     pure function of (sim params, shard data, query), independent of
///     which rig ran it or what that rig ran before. That is also why a
///     cluster's nodes need no rigs of their own.
///  3. Shard-major merge: partials are combined in shard-id order after
///     all tasks joined, never in completion order.
///
/// Cycle semantics: each serving shard is charged to one *clock lane*.
/// On a single host the lanes are P simulated workers (P =
/// QueryOptions::max_threads, or one per shard when <= 0) and the k-th
/// serving shard goes to worker k % P. Under a cluster the lane is the
/// node hosting the shard's serving replica (net::Topology placement),
/// so shards run where their data lives. A lane's clock is the sum of
/// its shards' cycles; lanes run in parallel, so the fan-out costs the
/// busiest lane plus the coordinator's merge. Host threads only change
/// wall time.
///
/// The merge charge differs by mode. On a single host it is one task
/// handoff per shard plus one aggregate update per partial slot of
/// every shard and of every group it produced. Under a cluster each
/// shard's partial crosses the simulated network priced by
/// net::NetworkModel: ship=rows sends the matching rows' referenced
/// columns, ship=aggs sends the partial aggregates. Both carry the
/// identical partial result, so the mode is a timing alias and answers
/// never change. The node pays serialization on its lane; the
/// coordinator ingests transfers serially (shard-major), paying wire,
/// handoff, deserialize and merge cycles.
///
/// Per-shard fault isolation: each shard task gets a private
/// FaultInjector seeded from (plan seed, shard id), so a fault hits the
/// same shard regardless of scheduling. A fabric fault inside one shard
/// degrades only that shard to the Volcano path (PR 3's fallback); the
/// failed attempt's cycles stay on that shard's clock and the query
/// still answers.
///
/// Failure domains (docs/robustness.md): before fan-out the scheduler
/// selects, per shard, the lowest-index live replica — consulting
/// ctx.health for liveness and drawing one "shard.kill" opportunity per
/// selection attempt, preceded under a cluster by one "node.kill" draw
/// on the replica's node — and charges CostModel::shard_failover_cycles
/// per dead replica or dead node skipped. A shard with no live replica
/// fails the query with kUnavailable (or is skipped with
/// QueryResult::partial under QueryOptions::allow_partial). All health
/// access happens in the single-threaded pre-fan-out / post-join
/// sections, so death schedules and failovers are bit-identical at any
/// host thread count. With QueryOptions::deadline_cycles set, shards
/// whose completion on their lane's clock lands past the deadline are
/// cancelled and the query fails with kDeadlineExceeded, EXPLAIN
/// ANALYZE profile intact.
class ShardScheduler {
 public:
  // Both out of line: Rig is incomplete here.
  explicit ShardScheduler(sim::SimParams sim_params, int host_threads = 0);
  ~ShardScheduler();

  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// One shard-fanout execution request (built by query::Executor from a
  /// sharded plan). All pointers are non-owning.
  struct Request {
    const shard::ShardedTable* table = nullptr;
    /// Catalog name of the table — the failure-domain component names
    /// (net::Topology::ReplicaName) are derived from it.
    std::string table_name;
    const engine::QuerySpec* spec = nullptr;
    /// Per-shard scan path; sharded plans support kRow and
    /// kRelationalMemory.
    Backend backend = Backend::kRow;
    /// Surviving shards after planner pruning, ascending.
    const std::vector<uint32_t>* shard_ids = nullptr;
    /// Per-shard ship modes, parallel to shard_ids (planner's
    /// rows-vs-aggs choice; empty without a cluster). Null or short =
    /// kAggs. Only priced under a cluster.
    const std::vector<net::ShipMode>* ship = nullptr;
    engine::CostModel cost;
  };

  /// Runs the fan-out and merges. Uses ctx.options.max_threads for the
  /// single-host simulated width, ctx.injector's plan for per-shard fault
  /// streams and ctx.tracer for the "query.shard_fanout" span. Fills
  /// ctx.profile's shard, net, cycle and degradation fields — also when
  /// a deadline fails the statement — and, under ctx.options.analyze,
  /// one op per planned shard plus the merge.
  StatusOr<engine::QueryResult> Execute(const Request& req,
                                        const ExecContext& ctx);

  /// Host worker pool size; <= 0 picks hardware concurrency. Affects
  /// wall time only — never answers or cycles (tests pin this).
  void set_host_threads(int n) { host_threads_ = n; }
  int host_threads() const { return host_threads_; }

  /// Puts later fan-outs on `topology`'s cluster: each shard is charged
  /// to its serving node's lane and its partial is priced as a network
  /// transfer. A disabled topology returns to single-host execution.
  void ConfigureCluster(const net::Topology& topology);
  const net::Topology& topology() const { return topology_; }

  // --- lifetime counters (across all Execute calls) ---
  uint64_t queries() const { return queries_; }
  uint64_t shards_scanned() const { return shards_scanned_; }
  uint64_t shards_pruned() const { return shards_pruned_; }
  uint64_t shards_degraded() const { return shards_degraded_; }
  uint64_t shard_faults_injected() const { return faults_injected_; }
  /// Dead replicas skipped during replica selection (lifetime sum).
  uint64_t shards_failed_over() const { return shards_failed_over_; }
  /// Shards skipped (allow_partial) or failed for lack of a live replica.
  uint64_t shards_unavailable() const { return shards_unavailable_; }
  /// Shards cancelled by a cycle-domain deadline.
  uint64_t shards_cancelled() const { return shards_cancelled_; }

  // --- network counters (cluster only; zero single-host) ---
  /// Payload bytes shipped node → coordinator (lifetime sum).
  uint64_t net_bytes() const { return net_bytes_; }
  uint64_t net_messages() const { return net_messages_; }
  /// Shards whose partial shipped as materialized rows / as partial
  /// aggregates.
  uint64_t shards_ship_rows() const { return shards_ship_rows_; }
  uint64_t shards_ship_aggs() const { return shards_ship_aggs_; }

  /// Exports "shard.*" counters and the per-shard cycle distribution
  /// ("shard.cycles"); under a cluster also "net.*" counters including
  /// per-node "net.node<k>.bytes". Idempotent (Set/assign, not
  /// Inc/Merge).
  void ExportTo(obs::Registry* registry) const;

 private:
  /// One worker-private simulation rig, reused across tasks and Execute
  /// calls; every task calls ResetAddressSpace() before touching it.
  struct Rig;
  /// Outcome of one shard scan, filled by its worker, read post-join.
  struct ShardRun;

  Rig& RigForSlot(int slot);
  /// One shard scan on the calling worker's rig.
  void RunShardTask(const Request& req, const engine::QuerySpec& partial_spec,
                    const ExecContext& ctx, uint32_t shard_id, Rig* rig,
                    ShardRun* out);

  sim::SimParams sim_params_;
  int host_threads_ = 0;
  net::Topology topology_;

  Mutex rig_mu_;
  /// The slot vector is guarded; each built Rig itself is worker-private
  /// (one slot per host worker, see RigForSlot).
  std::vector<std::unique_ptr<Rig>> rigs_ RELFAB_GUARDED_BY(rig_mu_);

  // Updated single-threaded after the pool joins.
  uint64_t queries_ = 0;
  uint64_t shards_scanned_ = 0;
  uint64_t shards_pruned_ = 0;
  uint64_t shards_degraded_ = 0;
  uint64_t faults_injected_ = 0;
  uint64_t shards_failed_over_ = 0;
  uint64_t shards_unavailable_ = 0;
  uint64_t shards_cancelled_ = 0;
  uint64_t net_bytes_ = 0;
  uint64_t net_messages_ = 0;
  uint64_t net_rows_shipped_ = 0;
  uint64_t net_agg_values_shipped_ = 0;
  uint64_t shards_ship_rows_ = 0;
  uint64_t shards_ship_aggs_ = 0;
  /// Lifetime payload bytes per node (index = node id).
  std::vector<uint64_t> node_bytes_;
  obs::Histogram shard_cycles_;
};

}  // namespace relfab::exec

#endif  // RELFAB_EXEC_SHARD_SCHEDULER_H_
