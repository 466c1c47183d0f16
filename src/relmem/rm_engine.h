#ifndef RELFAB_RELMEM_RM_ENGINE_H_
#define RELFAB_RELMEM_RM_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "faults/injector.h"
#include "faults/retry.h"
#include "layout/row_table.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "relmem/ephemeral.h"
#include "relmem/geometry.h"
#include "sim/memory_system.h"

namespace relfab::relmem {

/// Relational Memory: the in-memory instance of Relational Fabric
/// (paper §IV-A). Sits between the CPU and DRAM; given a geometry it
/// (1) issues bank-parallel DRAM requests for the scattered source
/// fields, (2) filters rows by hardware predicates / MVCC timestamps,
/// (3) packs qualifying rows' projected fields into dense cache lines in
/// the fill buffer, and (4) serves the CPU's demand reads from there.
///
/// Production cost per chunk is a three-stage pipeline, rate-limited by
/// its slowest stage: DRAM gather, row parsing (fabric clock), and output
/// packing. Gathers charge the shared DRAM channel, so fabric traffic and
/// CPU demand traffic contend for the same bandwidth.
class RmEngine {
 public:
  explicit RmEngine(sim::MemorySystem* memory)
      : memory_(memory), params_(memory->params()) {
    // relfab-lint: allow(data-check) wiring-time null check: a programming error, never data-dependent
    RELFAB_CHECK(memory != nullptr);
  }

  RmEngine(const RmEngine&) = delete;
  RmEngine& operator=(const RmEngine&) = delete;

  /// Configures an ephemeral variable for `geometry` over `table`
  /// (paper Fig. 3, line 25). Charges the descriptor-programming cost.
  /// The table and this engine must outlive the returned view.
  StatusOr<EphemeralView> Configure(const layout::RowTable& table,
                                    Geometry geometry);

  /// Result of producing one fill-buffer chunk. On a non-OK status no
  /// rows were produced and `next_input_row` equals the requested
  /// `input_row` (the fault fires before any gathering), so the caller
  /// can resume the remaining work — e.g. on the host path —
  /// exactly where the fabric gave up. `producer_cycles` still carries
  /// the simulated cost of the failed attempts and backoff.
  struct ChunkResult {
    uint64_t out_rows = 0;        // rows packed into the chunk
    uint64_t next_input_row = 0;  // where the next chunk resumes
    double producer_cycles = 0;   // fabric pipeline time (CPU cycles)
    Status status;                // non-OK: fabric fault, retries spent
  };

  /// Transforms source rows [input_row, end_row) into packed output rows
  /// until `max_out_rows` are produced or input is exhausted. Writes
  /// packed rows to `out` (functional data) and charges DRAM channel
  /// bandwidth for every gathered line. Used by EphemeralView; exposed
  /// for tests and ablations.
  ChunkResult ProduceChunk(const layout::RowTable& table, const Geometry& g,
                           const std::vector<uint32_t>& source_columns,
                           uint64_t input_row, uint64_t end_row,
                           uint64_t max_out_rows, uint8_t* out,
                           uint32_t out_row_bytes);

  /// True if `row` passes the geometry's hardware predicates and snapshot
  /// visibility check (functional semantics of the fabric's filter unit).
  static bool RowQualifies(const layout::RowTable& table, const Geometry& g,
                           uint64_t row);

  // --- aggregation pushdown (paper §IV-B) ---
  // "Pushing selection and aggregation in the hardware... the ephemeral
  // variables will contain only the required data or the aggregation
  // result, which will be passed through the memory hierarchy ensuring
  // minimal data movement."

  /// Aggregate op the fabric's reduction unit supports (simple column
  /// reductions; expressions stay on the CPU).
  enum class FabricAggOp : uint8_t { kSum, kMin, kMax, kCount };

  /// One requested reduction over a geometry column.
  struct FabricAgg {
    FabricAggOp op = FabricAggOp::kCount;
    /// Column to reduce (a member of the geometry's projection;
    /// ignored for kCount).
    uint32_t column = 0;
  };

  /// Result of an in-fabric aggregation: only this crosses the memory
  /// hierarchy (one cache line instead of the whole column group).
  struct FabricAggResult {
    std::vector<double> values;  // one per requested FabricAgg
    uint64_t rows_scanned = 0;
    uint64_t rows_matched = 0;   // after predicates/visibility
  };

  /// Evaluates the reductions entirely inside the fabric: gathers the
  /// source columns, filters by the geometry's predicates/visibility,
  /// reduces, and ships only the result. Charges the gather bandwidth
  /// and the fabric pipeline; the CPU pays a single buffer read.
  StatusOr<FabricAggResult> AggregateInFabric(
      const layout::RowTable& table, Geometry geometry,
      const std::vector<FabricAgg>& aggs);

  sim::MemorySystem* memory() const { return memory_; }
  uint64_t num_configures() const { return num_configures_; }
  uint64_t chunks_produced() const { return chunks_produced_; }
  uint64_t rows_parsed() const { return rows_parsed_; }
  uint64_t rows_packed() const { return rows_packed_; }

  /// Attaches a tracer; each produced chunk and in-fabric aggregation
  /// emits a span ("rm.gather.chunk" / "rm.aggregate"). Null detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Arms fault injection at the engine's sites ("rm.config",
  /// "rm.stall", "rm.gather"); null disarms. Handles resolve here so the
  /// production hot path pays one pointer test when unarmed.
  void set_fault_injector(faults::FaultInjector* injector) {
    injector_ = injector;
    config_site_ = injector == nullptr ? faults::FaultInjector::kNoSite
                                       : injector->Site("rm.config");
    stall_site_ = injector == nullptr ? faults::FaultInjector::kNoSite
                                      : injector->Site("rm.stall");
    gather_site_ = injector == nullptr ? faults::FaultInjector::kNoSite
                                       : injector->Site("rm.gather");
  }
  faults::FaultInjector* fault_injector() const { return injector_; }

  /// Publishes the engine's production counters under "rm.*", plus a
  /// chunk-size histogram when chunks were produced.
  void ExportTo(obs::Registry* registry) const {
    registry->counter("rm.configures")->Set(num_configures_);
    registry->counter("rm.chunks_produced")->Set(chunks_produced_);
    registry->counter("rm.rows_parsed")->Set(rows_parsed_);
    registry->counter("rm.rows_packed")->Set(rows_packed_);
  }

 private:
  sim::MemorySystem* memory_;
  const sim::SimParams& params_;
  obs::Tracer* tracer_ = nullptr;
  faults::FaultInjector* injector_ = nullptr;
  faults::RetryPolicy retry_;
  int config_site_ = faults::FaultInjector::kNoSite;
  int stall_site_ = faults::FaultInjector::kNoSite;
  int gather_site_ = faults::FaultInjector::kNoSite;
  uint64_t num_configures_ = 0;
  uint64_t chunks_produced_ = 0;
  uint64_t rows_parsed_ = 0;   // source rows run through the filter stage
  uint64_t rows_packed_ = 0;   // qualifying rows packed into fill buffers
};

}  // namespace relfab::relmem

#endif  // RELFAB_RELMEM_RM_ENGINE_H_
