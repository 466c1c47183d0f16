#ifndef RELFAB_SIM_PARAMS_H_
#define RELFAB_SIM_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace relfab::sim {

/// Bytes per cache line. A constant, not a SimParams knob: the simulator,
/// the RM engine and the scan engines compute line indices with 64-byte
/// shifts and masks throughout.
inline constexpr uint32_t kCacheLineBytes = 64;

/// Memory class of an allocation. kDram is the normal off-chip path (cache
/// hierarchy + DRAM banks + channel bandwidth); kFabricBuffer models the
/// Relational Memory fill buffer that lives in the programmable logic —
/// reads from it bypass the DRAM channel because the fabric already paid
/// for the source-data movement when it produced the buffer.
enum class MemClass : uint8_t {
  kDram = 0,
  kFabricBuffer = 1,
};

/// Cycle-domain NIC/link model for the distributed fabric (src/net):
/// simulated nodes exchange shard partials over point-to-point links
/// priced per message (latency) and per byte (bandwidth). All costs are
/// CPU cycles at the SimParams clock; the per-row/per-aggregate
/// serialization CPU costs live in engine::CostModel. Defaults model a
/// 10 GbE-class NIC seen from a 1.5 GHz core: ~2 us one-way latency and
/// ~0.8 B per CPU cycle of usable bandwidth.
struct NetworkParams {
  /// One-way latency per message (NIC traversal + switch hop).
  double link_latency_cycles = 3000.0;
  /// Usable link bandwidth in payload bytes per CPU cycle.
  double bytes_per_cycle = 0.8;
  /// Payload bytes per message; larger transfers fragment.
  uint32_t mtu_bytes = 4096;
  /// Per-message framing overhead (headers, checksums) charged to the
  /// bandwidth term on top of the payload.
  uint32_t message_header_bytes = 48;
};

/// Calibration constants for the simulated platform. Defaults model the
/// paper's target (Xilinx Zynq UltraScale+; 4x Cortex-A53 @1.5 GHz with
/// 32 KB L1 / 1 MB shared L2, DDR4 behind 8 banks, RM fabric @100 MHz with
/// a 2 MB fill buffer). All latencies are in CPU cycles at 1.5 GHz.
///
/// These constants are the calibration surface for the paper's figures:
/// tests assert the resulting *shapes* (crossovers, orderings), not the
/// constants themselves.
struct SimParams {
  // --- geometry ---
  uint32_t l1_bytes = 32 * 1024;
  uint32_t l1_ways = 4;
  uint32_t l2_bytes = 1024 * 1024;
  uint32_t l2_ways = 16;

  // --- latencies (CPU cycles) ---
  double l1_hit_cycles = 2.0;
  double l2_hit_cycles = 14.0;
  /// Raw DRAM access latency when the target bank row buffer is open/closed.
  double dram_row_hit_cycles = 110.0;
  double dram_row_miss_cycles = 165.0;
  /// Channel occupancy per 64 B line moved from DRAM (bandwidth term).
  double line_transfer_cycles = 6.0;
  /// Cost of a demand miss whose line was covered by a hardware prefetch
  /// (the line is already in, or about to land in, L2).
  double prefetch_covered_cycles = 10.0;
  /// Average number of overlapping outstanding demand misses the in-order
  /// core sustains (limited MLP on the A53); exposed miss latency is
  /// raw latency / mlp.
  double cpu_mlp = 2.0;

  // --- DRAM organization ---
  uint32_t dram_banks = 8;
  uint32_t dram_row_bytes = 2048;

  // --- prefetcher ---
  /// Number of concurrently tracked sequential streams. The Cortex-A53
  /// data prefetcher tracks a small fixed number; the paper observes the
  /// column engine degrading beyond four parallel column cursors.
  uint32_t prefetch_streams = 4;
  /// A stream must make this many sequential line steps before its
  /// prefetches start covering demand misses.
  uint32_t prefetch_train_steps = 2;
  /// Window (in lines) within which a miss still matches a stream.
  uint32_t prefetch_match_window = 4;

  // --- Relational Memory fabric ---
  /// CPU-side latency of a demand miss served by the RM fill buffer.
  double fabric_read_cycles = 12.0;
  /// Fabric-to-CPU clock ratio (1.5 GHz / 100 MHz).
  double fabric_clock_ratio = 15.0;
  /// Fabric cycles to pack one output cache line (pipelined datapath).
  double fabric_pack_cycles_per_line = 1.0;
  /// Source rows the fabric's row parser processes per fabric cycle; the
  /// 100 MHz datapath walks row descriptors at this rate, which is the
  /// production floor for narrow outputs.
  double fabric_rows_per_cycle = 1.25;
  /// Number of DRAM banks the RM gather engine drives concurrently.
  uint32_t fabric_gather_parallelism = 8;
  /// Size of the on-fabric data memory (double-buffered fill buffer).
  uint64_t fabric_buffer_bytes = 2 * 1024 * 1024;
  /// One-time stall when the fill buffer wraps and must be re-armed
  /// (descriptor reload + first-line refill latency).
  double fabric_refill_stall_cycles = 1500.0;
  /// One-time cost of configuring an ephemeral variable (writing the
  /// geometry descriptor registers over AXI).
  double fabric_configure_cycles = 800.0;

  // --- distributed fabric (src/net) ---
  /// Link model between simulated nodes. Only consulted when a cluster
  /// is configured (Fabric::ConfigureCluster); the single-host fan-out
  /// never charges network cycles.
  NetworkParams network;

  /// Baseline parameters of the paper's evaluation platform.
  static SimParams ZynqA53Defaults() { return SimParams{}; }

  /// Relational Memory Controller (paper §IV-C): the transformer moves
  /// from external programmable logic into the memory controller itself.
  /// It runs at the controller clock (vs. 100 MHz fabric), has first-
  /// party access to the DIMMs (all banks, faster buffer reads), and is
  /// configured through an ISA extension instead of AXI register writes.
  static SimParams RelationalMemoryControllerDefaults() {
    SimParams p;
    p.fabric_clock_ratio = 2.5;        // ~600 MHz controller domain
    p.fabric_read_cycles = 8.0;        // buffer adjacent to the controller
    p.fabric_gather_parallelism = 16;  // full bank/bank-group visibility
    p.fabric_configure_cycles = 60.0;  // one ISA instruction, no AXI hop
    p.fabric_refill_stall_cycles = 300.0;
    return p;
  }

  uint32_t l1_sets() const {
    return l1_bytes / (kCacheLineBytes * l1_ways);
  }
  /// Bytes one demand Read may cover, from any start offset, and still
  /// leave every line it touched the MRU of its L1 set: l1_sets() - 1
  /// lines' worth. However it is aligned, such a range spans at most
  /// l1_sets() consecutive lines, which map to distinct sets. A whole
  /// l1_sets() lines' worth spans l1_sets() + 1 lines unless it starts
  /// on a line boundary, and its last line takes over its first line's
  /// set.
  uint64_t l1_mru_span_bytes() const {
    return static_cast<uint64_t>(l1_sets() - 1) * kCacheLineBytes;
  }
  uint32_t l2_sets() const {
    return l2_bytes / (kCacheLineBytes * l2_ways);
  }
};

}  // namespace relfab::sim

#endif  // RELFAB_SIM_PARAMS_H_
