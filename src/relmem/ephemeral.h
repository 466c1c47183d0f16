#ifndef RELFAB_RELMEM_EPHEMERAL_H_
#define RELFAB_RELMEM_EPHEMERAL_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "layout/row_table.h"
#include "layout/schema.h"
#include "relmem/geometry.h"
#include "sim/memory_system.h"

namespace relfab::relmem {

class RmEngine;

/// An *ephemeral variable* (paper §II, Fig. 3): a dense, non-materialized
/// alias of an arbitrary column group of a row-oriented table. The CPU
/// iterates it as if the packed column group existed contiguously in
/// memory; underneath, the fabric gathers the scattered source fields
/// with bank-parallel DRAM reads, packs them into the 2 MB fill buffer,
/// and streams them out. Production overlaps consumption (double
/// buffering); the cursor charges a stall whenever the consumer outruns
/// the producer, plus a fixed re-arm cost per buffer refill.
///
/// The source table and the RmEngine must outlive the view. One cursor
/// may be active at a time; constructing a cursor restarts the stream.
class EphemeralView {
 public:
  EphemeralView(const EphemeralView&) = delete;
  EphemeralView& operator=(const EphemeralView&) = delete;
  EphemeralView(EphemeralView&&) = default;
  EphemeralView& operator=(EphemeralView&&) = default;

  const Geometry& geometry() const { return geometry_; }
  const layout::Schema& source_schema() const { return table_->schema(); }

  /// Packed bytes of one output row.
  uint32_t out_row_bytes() const { return out_row_bytes_; }
  /// Number of fields per output row.
  uint32_t num_fields() const {
    return static_cast<uint32_t>(geometry_.columns.size());
  }
  /// Source-schema type of output field `f`.
  layout::ColumnType field_type(uint32_t f) const {
    return table_->schema().type(geometry_.columns[f]);
  }
  uint32_t field_width(uint32_t f) const {
    return table_->schema().width(geometry_.columns[f]);
  }
  /// Source-schema name of output field `f`.
  const std::string& field_name(uint32_t f) const {
    return table_->schema().column(geometry_.columns[f]).name;
  }

  /// True when the fabric filters rows (predicates or MVCC snapshot), in
  /// which case the output cardinality is only known after scanning.
  bool has_pushdown() const {
    return !geometry_.predicates.empty() || geometry_.visibility.enabled;
  }

  /// Output rows for a pushdown-free view (== source rows in range).
  uint64_t num_rows() const {
    // relfab-lint: allow(data-check) API-contract violation by the caller (documented precondition), not input data
    RELFAB_CHECK(!has_pushdown())
        << "num_rows() is undefined for filtered views; scan with a Cursor";
    return end_row_ - begin_row_;
  }

  /// Forward cursor over the view's output rows.
  class Cursor {
   public:
    /// Restarts the view's stream and positions on the first output row.
    explicit Cursor(EphemeralView* view) : view_(view), reader_(nullptr) {
      view_->RestartStream();
      reader_ = sim::SequentialReader(view_->memory());
    }

    bool Valid() const { return local_row_ < view_->chunk_rows_; }

    void Advance() {
      RELFAB_DCHECK(Valid());
      ++local_row_;
      ++global_row_;
      if (local_row_ == view_->chunk_rows_) {
        view_->LoadNextChunk();
        local_row_ = 0;
        reader_.Reset();
      }
    }

    /// Index of the current output row (across chunks).
    uint64_t row_index() const { return global_row_; }

    int64_t GetInt(uint32_t field) {
      return layout::LoadInt(view_->field_type(field), FieldPtr(field));
    }

    double GetDouble(uint32_t field) {
      return layout::LoadDouble(view_->field_type(field), FieldPtr(field));
    }

    std::string_view GetChar(uint32_t field) {
      RELFAB_DCHECK(view_->field_type(field) == layout::ColumnType::kChar);
      return std::string_view(reinterpret_cast<const char*>(FieldPtr(field)),
                              view_->field_width(field));
    }

   private:
    const uint8_t* FieldPtr(uint32_t field) {
      RELFAB_DCHECK(Valid());
      const uint64_t offset =
          local_row_ * view_->out_row_bytes_ + view_->field_offsets_[field];
      reader_.Read(view_->chunk_sim_base_ + offset,
                   view_->field_width(field));
      return view_->chunk_data_.data() + offset;
    }

    EphemeralView* view_;
    sim::SequentialReader reader_;
    uint64_t local_row_ = 0;
    uint64_t global_row_ = 0;
  };

  sim::MemorySystem* memory() const { return table_->memory(); }

  /// Non-OK when the stream stopped on an injected fabric fault instead
  /// of end-of-input: the cursor went invalid early. Engines must check
  /// this after every scan loop; a fabric-fault status means the rows
  /// from input_row() onward were never produced and can be recovered on
  /// the host path.
  const Status& status() const { return status_; }

  /// First source row the stream has not consumed — on a faulted stream,
  /// the exact resume point for host-side continuation.
  uint64_t input_row() const { return input_cursor_; }

 private:
  friend class RmEngine;
  friend class Cursor;

  EphemeralView(const layout::RowTable* table, RmEngine* engine,
                Geometry geometry);

  /// Rewinds the input cursor and produces the first chunk.
  void RestartStream();

  /// Produces the next fill-buffer chunk; sets chunk_rows_ = 0 at end.
  void LoadNextChunk();

  const layout::RowTable* table_;
  RmEngine* engine_;
  Geometry geometry_;
  std::vector<uint32_t> field_offsets_;  // packed offsets in an output row
  std::vector<uint32_t> source_columns_;
  uint32_t out_row_bytes_ = 0;
  uint64_t begin_row_ = 0;
  uint64_t end_row_ = 0;

  // Chunked production state. chunk_sim_base_ advances monotonically
  // through fabric address space: the physical fill buffer is reused but
  // each refill presents logically fresh lines to the cache model.
  std::vector<uint8_t> chunk_data_;
  double refill_stall_per_chunk_ = 0;
  uint64_t chunk_capacity_rows_ = 0;
  uint64_t chunk_rows_ = 0;
  uint64_t chunk_sim_base_ = 0;
  uint64_t input_cursor_ = 0;
  double cpu_at_last_refill_ = 0;
  bool first_chunk_ = true;
  Status status_;  // non-OK: production died on an injected fault
};

}  // namespace relfab::relmem

#endif  // RELFAB_RELMEM_EPHEMERAL_H_
