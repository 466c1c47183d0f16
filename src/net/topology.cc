#include "net/topology.h"

namespace relfab::net {

StatusOr<Topology> Topology::Make(const ClusterConfig& config) {
  if (config.nodes < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.nodes must be >= 1, got " +
        std::to_string(config.nodes));
  }
  if (config.nodes > 1024) {
    return Status::InvalidArgument(
        "ClusterConfig.nodes must be <= 1024, got " +
        std::to_string(config.nodes));
  }
  if (!(config.network.bytes_per_cycle > 0)) {
    return Status::InvalidArgument(
        "ClusterConfig.network.bytes_per_cycle must be > 0");
  }
  if (config.network.link_latency_cycles < 0) {
    return Status::InvalidArgument(
        "ClusterConfig.network.link_latency_cycles must be >= 0");
  }
  if (config.network.mtu_bytes < 64) {
    return Status::InvalidArgument(
        "ClusterConfig.network.mtu_bytes must be >= 64, got " +
        std::to_string(config.network.mtu_bytes));
  }
  Topology t;
  t.nodes_ = config.nodes;
  t.network_ = config.network;
  return t;
}

std::string Topology::NodeName(uint32_t node) {
  return "node" + std::to_string(node);
}

std::string Topology::ReplicaName(const std::string& table, uint32_t shard,
                                  uint32_t replica) {
  return table + ".shard" + std::to_string(shard) + ".r" +
         std::to_string(replica);
}

uint32_t Topology::NodeFor(uint32_t shard, uint32_t replica,
                           uint32_t num_shards, Placement placement) const {
  // relfab-lint: allow(data-check) wiring-time invariant: callers route here only when a cluster is configured
  RELFAB_CHECK(nodes_ > 0) << "NodeFor on a disabled topology";
  switch (placement) {
    case Placement::kRoundRobin:
      return (shard + replica) % nodes_;
    case Placement::kBlock: {
      const uint64_t base =
          num_shards == 0
              ? 0
              : static_cast<uint64_t>(shard) * nodes_ / num_shards;
      return static_cast<uint32_t>((base + replica) % nodes_);
    }
  }
  return 0;
}

}  // namespace relfab::net
