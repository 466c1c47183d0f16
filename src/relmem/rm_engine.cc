#include "relmem/rm_engine.h"

#include <algorithm>
#include <cstring>

namespace relfab::relmem {

namespace {

/// Accumulates a gather loop's deduplicated line stream into maximal
/// consecutive runs and charges each run through
/// MemorySystem::GatherRun instead of per-line GatherLine calls.
///
/// Exactness: the per-run charge `len * transfer + misses * (miss_lat /
/// parallelism)` re-associates the reference loop's additions into
/// `cycles_`, which starts at zero and only ever accumulates dyadic
/// rationals (6.0 and miss_lat/parallelism, a power-of-two division of
/// an integer) — every partial sum is exactly representable, so any
/// association order yields the same bits. GatherRun replays the DRAM
/// row-buffer state and channel/gather counters in closed form. Only
/// used when the fast path is on; the per-line loop remains the
/// reference the equivalence tests compare against.
class GatherBatcher {
 public:
  GatherBatcher(sim::MemorySystem* memory, const sim::SimParams& params)
      : memory_(memory),
        transfer_(params.line_transfer_cycles),
        miss_per_line_(params.dram_row_miss_cycles /
                       params.fabric_gather_parallelism) {}

  /// Adds one (already deduplicated) line to the pending run.
  void Add(uint64_t line) {
    if (run_len_ > 0 && line == run_start_ + run_len_) {
      ++run_len_;
      return;
    }
    Flush();
    run_start_ = line;
    run_len_ = 1;
  }

  /// Charges the pending run; must be called before reading cycles().
  void Flush() {
    if (run_len_ == 0) return;
    const uint64_t misses = memory_->GatherRun(run_start_ << 6, run_len_);
    cycles_ += transfer_ * static_cast<double>(run_len_) +
               miss_per_line_ * static_cast<double>(misses);
    run_len_ = 0;
  }

  double cycles() const { return cycles_; }

 private:
  sim::MemorySystem* memory_;
  double transfer_;
  double miss_per_line_;
  uint64_t run_start_ = 0;
  uint64_t run_len_ = 0;
  double cycles_ = 0;
};

}  // namespace

bool RmEngine::RowQualifies(const layout::RowTable& table, const Geometry& g,
                            uint64_t row) {
  if (g.visibility.enabled) {
    const uint64_t begin_ts = static_cast<uint64_t>(
        table.GetInt(row, g.visibility.begin_ts_column));
    const uint64_t end_ts =
        static_cast<uint64_t>(table.GetInt(row, g.visibility.end_ts_column));
    if (begin_ts > g.visibility.read_ts) return false;
    if (end_ts != 0 && end_ts <= g.visibility.read_ts) return false;
  }
  for (const HwPredicate& p : g.predicates) {
    if (!p.Matches(table.GetDouble(row, p.column))) return false;
  }
  return true;
}

StatusOr<EphemeralView> RmEngine::Configure(const layout::RowTable& table,
                                            Geometry geometry) {
  RELFAB_RETURN_IF_ERROR(geometry.Validate(table.schema()));
  geometry.end_row = std::min(geometry.end_row, table.num_rows());
  geometry.begin_row = std::min(geometry.begin_row, geometry.end_row);
  // Descriptor programming can find the fabric unavailable; the retry
  // stalls the core (it is the CPU that waits on the config interface).
  RELFAB_RETURN_IF_ERROR(faults::InjectAndRetry(
      injector_, config_site_, retry_,
      [this](double cycles) { memory_->Stall(cycles); },
      "ephemeral-view descriptor programming", tracer_));
  memory_->CpuWork(params_.fabric_configure_cycles);
  ++num_configures_;
  return EphemeralView(&table, this, std::move(geometry));
}

StatusOr<RmEngine::FabricAggResult> RmEngine::AggregateInFabric(
    const layout::RowTable& table, Geometry geometry,
    const std::vector<FabricAgg>& aggs) {
  RELFAB_RETURN_IF_ERROR(geometry.Validate(table.schema()));
  if (aggs.empty()) {
    return Status::InvalidArgument("no reductions requested");
  }
  for (const FabricAgg& agg : aggs) {
    if (agg.op == FabricAggOp::kCount) continue;
    if (std::find(geometry.columns.begin(), geometry.columns.end(),
                  agg.column) == geometry.columns.end()) {
      return Status::InvalidArgument(
          "reduction column must be part of the geometry");
    }
    if (table.schema().type(agg.column) == layout::ColumnType::kChar) {
      return Status::InvalidArgument("cannot reduce a char column");
    }
  }
  geometry.end_row = std::min(geometry.end_row, table.num_rows());
  geometry.begin_row = std::min(geometry.begin_row, geometry.end_row);
  RELFAB_RETURN_IF_ERROR(faults::InjectAndRetry(
      injector_, config_site_, retry_,
      [this](double cycles) { memory_->Stall(cycles); },
      "in-fabric aggregation descriptor", tracer_));
  memory_->CpuWork(params_.fabric_configure_cycles);
  ++num_configures_;

  obs::Span span(tracer_, "rm.aggregate", "relmem");
  // The whole aggregation is one fabric operation: draw its stall and
  // gather faults up front (before any bandwidth is spent), charging
  // penalties/backoff as pipeline stalls.
  {
    const auto charge = [this](double cycles) { memory_->Stall(cycles); };
    Status st = faults::InjectAndRetry(injector_, stall_site_, retry_, charge,
                                       "in-fabric aggregation", tracer_);
    if (st.ok()) {
      st = faults::InjectAndRetry(injector_, gather_site_, retry_, charge,
                                  "in-fabric aggregation gather", tracer_);
    }
    if (!st.ok()) {
      span.AddArg("fault", st.ToString());
      return st;
    }
  }
  const layout::Schema& schema = table.schema();
  const std::vector<uint32_t> source = geometry.SourceColumns(schema);
  FabricAggResult result;
  result.values.assign(aggs.size(), 0.0);
  std::vector<bool> first(aggs.size(), true);

  double gather_cycles = 0;
  uint64_t last_line = ~0ull;
  const bool batched = memory_->fast_path();
  GatherBatcher batcher(memory_, params_);
  for (uint64_t row = geometry.begin_row; row < geometry.end_row; ++row) {
    ++result.rows_scanned;
    for (uint32_t c : source) {
      const uint64_t addr = table.FieldAddress(row, c);
      const uint64_t first_line = addr >> 6;
      const uint64_t last_needed = (addr + schema.width(c) - 1) >> 6;
      for (uint64_t line = first_line; line <= last_needed; ++line) {
        if (line == last_line) continue;
        if (batched) {
          batcher.Add(line);
        } else {
          bool row_hit = false;
          const double lat = memory_->GatherLine(line << 6, &row_hit);
          gather_cycles += params_.line_transfer_cycles;
          if (!row_hit) {
            gather_cycles += lat / params_.fabric_gather_parallelism;
          }
        }
        last_line = line;
      }
    }
    if (!RowQualifies(table, geometry, row)) continue;
    ++result.rows_matched;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const FabricAgg& agg = aggs[a];
      switch (agg.op) {
        case FabricAggOp::kCount:
          result.values[a] += 1;
          break;
        case FabricAggOp::kSum:
          result.values[a] += table.GetDouble(row, agg.column);
          break;
        case FabricAggOp::kMin: {
          const double v = table.GetDouble(row, agg.column);
          result.values[a] = first[a] ? v : std::min(result.values[a], v);
          first[a] = false;
          break;
        }
        case FabricAggOp::kMax: {
          const double v = table.GetDouble(row, agg.column);
          result.values[a] = first[a] ? v : std::max(result.values[a], v);
          first[a] = false;
          break;
        }
      }
    }
  }

  if (batched) {
    batcher.Flush();
    gather_cycles = batcher.cycles();
  }
  // Pipeline: gather vs row parse vs the (trivially pipelined) reduce.
  const double parse_cycles =
      static_cast<double>(result.rows_scanned) /
      params_.fabric_rows_per_cycle * params_.fabric_clock_ratio;
  memory_->Stall(std::max(gather_cycles, parse_cycles));
  // The CPU reads back one result line.
  memory_->CpuWork(params_.fabric_read_cycles);
  return result;
}

RmEngine::ChunkResult RmEngine::ProduceChunk(
    const layout::RowTable& table, const Geometry& g,
    const std::vector<uint32_t>& source_columns, uint64_t input_row,
    uint64_t end_row, uint64_t max_out_rows, uint8_t* out,
    uint32_t out_row_bytes) {
  const layout::Schema& schema = table.schema();
  obs::Span span(tracer_, "rm.gather.chunk", "relmem");
  ChunkResult result;
  result.next_input_row = input_row;
  // Faults fire at the head of the chunk, before any line is gathered:
  // on failure the caller resumes at exactly `input_row`, and the
  // penalty/backoff cycles ride in producer_cycles like any other
  // pipeline time.
  if (injector_ != nullptr) {
    const auto charge = [&result](double cycles) {
      result.producer_cycles += cycles;
    };
    result.status = faults::InjectAndRetry(
        injector_, stall_site_, retry_, charge, "chunk production", tracer_);
    if (result.status.ok()) {
      result.status = faults::InjectAndRetry(injector_, gather_site_, retry_,
                                             charge, "bank-parallel gather",
                                             tracer_);
    }
    if (!result.status.ok()) {
      span.AddArg("fault", result.status.ToString());
      return result;
    }
  }
  double gather_cycles = 0;
  double parse_rows = 0;
  uint64_t last_line = ~0ull;
  uint64_t row = input_row;
  const bool batched = memory_->fast_path();
  GatherBatcher batcher(memory_, params_);

  for (; row < end_row && result.out_rows < max_out_rows; ++row) {
    parse_rows += 1;
    // Stage 1: gather every line containing a needed source field.
    // Field addresses are non-decreasing within a row and across rows, so
    // one running line suffices to deduplicate shared lines.
    for (uint32_t c : source_columns) {
      const uint64_t addr = table.FieldAddress(row, c);
      const uint64_t first = addr >> 6;
      const uint64_t last = (addr + schema.width(c) - 1) >> 6;
      for (uint64_t line = first; line <= last; ++line) {
        if (line == last_line) continue;
        if (batched) {
          batcher.Add(line);
        } else {
          bool row_hit = false;
          const double lat = memory_->GatherLine(line << 6, &row_hit);
          // An open-row access streams at channel rate; a row open
          // exposes its latency divided across the concurrently driven
          // banks.
          gather_cycles += params_.line_transfer_cycles;
          if (!row_hit) {
            gather_cycles += lat / params_.fabric_gather_parallelism;
          }
        }
        last_line = line;
      }
    }
    // Stage 2: filter (predicates + snapshot visibility) in the fabric.
    if (!RowQualifies(table, g, row)) continue;
    // Stage 3: pack the projected fields densely.
    uint8_t* dst = out + result.out_rows * out_row_bytes;
    const uint8_t* src = table.RowData(row);
    for (uint32_t c : g.columns) {
      std::memcpy(dst, src + schema.offset(c), schema.width(c));
      dst += schema.width(c);
    }
    ++result.out_rows;
  }

  if (batched) {
    batcher.Flush();
    gather_cycles = batcher.cycles();
  }
  result.next_input_row = row;
  ++chunks_produced_;
  rows_parsed_ += row - input_row;
  rows_packed_ += result.out_rows;
  span.AddArg("rows_in", row - input_row);
  span.AddArg("rows_out", result.out_rows);
  const double out_lines =
      static_cast<double>(result.out_rows * out_row_bytes + 63) / 64.0;
  const double parse_cycles = parse_rows / params_.fabric_rows_per_cycle *
                              params_.fabric_clock_ratio;
  const double pack_cycles = out_lines * params_.fabric_pack_cycles_per_line *
                             params_.fabric_clock_ratio;
  // The three stages are pipelined: the chunk takes as long as the
  // slowest stage. Injected-fault penalties (already in producer_cycles)
  // are serial head-of-chunk time, so they add on top.
  result.producer_cycles +=
      std::max(gather_cycles, std::max(parse_cycles, pack_cycles));
  return result;
}

}  // namespace relfab::relmem
