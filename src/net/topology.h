#ifndef RELFAB_NET_TOPOLOGY_H_
#define RELFAB_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "sim/params.h"

namespace relfab::net {

/// How a sharded table's replicas map onto the cluster's nodes.
enum class Placement : uint8_t {
  /// Replica j of shard i lands on node (i + j) mod N: shards stripe
  /// across the cluster and a shard's replicas always sit on distinct
  /// nodes (up to N), so one node death costs at most one replica per
  /// shard.
  kRoundRobin = 0,
  /// Shards partition into contiguous blocks (shard i's primary is node
  /// floor(i * N / num_shards)); replicas still step to the next node.
  /// Keeps key-adjacent shards co-located for range-heavy workloads.
  kBlock = 1,
};

inline std::string_view PlacementToString(Placement placement) {
  switch (placement) {
    case Placement::kRoundRobin:
      return "round_robin";
    case Placement::kBlock:
      return "block";
  }
  return "?";
}

inline StatusOr<Placement> PlacementFromString(std::string_view name) {
  if (name == "round_robin") return Placement::kRoundRobin;
  if (name == "block") return Placement::kBlock;
  return Status::InvalidArgument("unknown placement '" + std::string(name) +
                                 "' (round_robin, block)");
}

/// Everything Fabric::ConfigureCluster needs: how many simulated nodes
/// and how they are linked. Designated-initializer friendly:
///
///   fabric.ConfigureCluster({.nodes = 4});
///   fabric.ConfigureCluster({.nodes = 8, .network = {.mtu_bytes = 1500}});
struct ClusterConfig {
  /// Simulated nodes (>= 1). Each node is one clock lane of the shard
  /// fan-out: the scheduler charges a shard's scan to the node hosting
  /// its serving replica and prices coordinator merges as network
  /// transfers.
  uint32_t nodes = 1;
  /// Inter-node link model; defaults to sim::NetworkParams defaults
  /// (the same values a default-constructed SimParams carries). The
  /// explicit initializer lets `ConfigureCluster({.nodes = N})` omit it
  /// without -Wmissing-field-initializers.
  sim::NetworkParams network = {};
};

/// Validated cluster shape: node count, link parameters and the
/// shard/replica → node mapping. Default-constructed = disabled (the
/// classic single-host fan-out with no network charges). Value type —
/// the planner and scheduler each hold a copy kept in sync by
/// Fabric::ConfigureCluster.
class Topology {
 public:
  /// Disabled topology (single-host execution).
  Topology() = default;

  /// Validates `config` (structured kInvalidArgument on bad values) and
  /// builds an enabled topology.
  static StatusOr<Topology> Make(const ClusterConfig& config);

  bool enabled() const { return nodes_ > 0; }
  /// Node count; 0 when disabled.
  uint32_t nodes() const { return nodes_; }
  const sim::NetworkParams& network() const { return network_; }

  /// Failure-domain component name of a node ("node0", "node1", ...).
  static std::string NodeName(uint32_t node);
  /// Failure-domain component name of replica `replica` of shard `shard`
  /// of `table` ("<table>.shard<i>.r<j>"), with or without a cluster.
  static std::string ReplicaName(const std::string& table, uint32_t shard,
                                 uint32_t replica);

  /// Node hosting replica `replica` of shard `shard` in a table of
  /// `num_shards` shards under `placement`.
  uint32_t NodeFor(uint32_t shard, uint32_t replica, uint32_t num_shards,
                   Placement placement) const;

 private:
  uint32_t nodes_ = 0;
  sim::NetworkParams network_;
};

}  // namespace relfab::net

#endif  // RELFAB_NET_TOPOLOGY_H_
