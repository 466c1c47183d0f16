#ifndef RELFAB_LAYOUT_ROW_TABLE_H_
#define RELFAB_LAYOUT_ROW_TABLE_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "layout/schema.h"
#include "sim/memory_system.h"

namespace relfab::layout {

/// Builds one packed row field-by-field in schema order.
class RowBuilder {
 public:
  explicit RowBuilder(const Schema* schema)
      : schema_(schema), buffer_(schema->row_bytes()) {}

  RowBuilder& AddInt32(int32_t v) { return AddRaw(&v, 4, ColumnType::kInt32); }
  RowBuilder& AddInt64(int64_t v) { return AddRaw(&v, 8, ColumnType::kInt64); }
  RowBuilder& AddDouble(double v) {
    return AddRaw(&v, 8, ColumnType::kDouble);
  }
  RowBuilder& AddDate(int32_t days) {
    return AddRaw(&days, 4, ColumnType::kDate);
  }
  /// Pads/truncates to the column's fixed width.
  RowBuilder& AddChar(std::string_view s);

  /// The packed row; all fields must have been added.
  const uint8_t* Finish() {
    RELFAB_CHECK_EQ(next_column_, schema_->num_columns())
        << "row is missing fields";
    next_column_ = 0;
    return buffer_.data();
  }

  /// Restarts the builder for the next row.
  void Reset() { next_column_ = 0; }

 private:
  RowBuilder& AddRaw(const void* src, uint32_t bytes, ColumnType expect) {
    RELFAB_CHECK_LT(next_column_, schema_->num_columns());
    RELFAB_CHECK(schema_->type(next_column_) == expect)
        << "field " << next_column_ << " type mismatch";
    std::memcpy(buffer_.data() + schema_->offset(next_column_), src, bytes);
    ++next_column_;
    return *this;
  }

  const Schema* schema_;
  std::vector<uint8_t> buffer_;
  uint32_t next_column_ = 0;
};

/// The base data of the Relational Fabric design: a single packed
/// row-oriented table in simulated DRAM. This is the *only* physical copy
/// of the data — the COL baseline materializes its own copy, while RM
/// accesses this one through ephemeral views.
///
/// Functional data lives in host memory (`data_`); `base_addr_` is the
/// table's location in the simulated address space for timing.
class RowTable {
 public:
  /// Creates an empty table whose simulated storage can hold `capacity`
  /// rows. Appends beyond capacity relocate the table in simulated memory
  /// (new allocation), like a realloc would.
  RowTable(Schema schema, sim::MemorySystem* memory, uint64_t capacity = 0);

  /// Timing alias: a read-only view that shares `base`'s host bytes but
  /// lives at a fresh allocation in `memory`'s simulated address space.
  /// Engines running on the alias charge *that* memory system — which is
  /// how the shard scheduler re-hosts a shard (built on the fabric's
  /// memory) onto a worker-private rig without copying data. The alias
  /// is immutable (AppendRow/MutableRowData abort) and must not outlive
  /// `base`.
  static RowTable TimingAlias(const RowTable& base,
                              sim::MemorySystem* memory);

  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;
  RowTable(RowTable&&) = default;
  RowTable& operator=(RowTable&&) = default;

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  uint64_t capacity() const { return capacity_; }
  uint32_t row_bytes() const { return schema_.row_bytes(); }
  uint64_t data_bytes() const { return num_rows_ * row_bytes(); }

  /// Simulated address of the start of row `row`.
  uint64_t RowAddress(uint64_t row) const {
    return base_addr_ + row * row_bytes();
  }
  /// Simulated address of field `col` of row `row`.
  uint64_t FieldAddress(uint64_t row, uint32_t col) const {
    return RowAddress(row) + schema_.offset(col);
  }
  uint64_t base_address() const { return base_addr_; }

  /// Appends one packed row (row_bytes() bytes).
  void AppendRow(const uint8_t* packed_row);

  /// Host pointer to the packed bytes of a row.
  const uint8_t* RowData(uint64_t row) const {
    RELFAB_DCHECK(row < num_rows_);
    const uint8_t* base = shared_data_ != nullptr ? shared_data_ : data_.data();
    return base + row * row_bytes();
  }
  uint8_t* MutableRowData(uint64_t row) {
    RELFAB_DCHECK(row < num_rows_);
    RELFAB_CHECK(shared_data_ == nullptr) << "timing alias is read-only";
    return data_.data() + row * row_bytes();
  }

  /// True for TimingAlias views (read-only, borrowed host bytes).
  bool is_alias() const { return shared_data_ != nullptr; }

  // --- typed field access (functional only; callers charge the sim) ---
  int64_t GetInt(uint64_t row, uint32_t col) const {
    return LoadInt(schema_.type(col), RowData(row) + schema_.offset(col));
  }

  double GetDouble(uint64_t row, uint32_t col) const {
    return LoadDouble(schema_.type(col), RowData(row) + schema_.offset(col));
  }

  std::string_view GetChar(uint64_t row, uint32_t col) const {
    RELFAB_DCHECK(schema_.type(col) == ColumnType::kChar);
    return std::string_view(
        reinterpret_cast<const char*>(RowData(row) + schema_.offset(col)),
        schema_.width(col));
  }

  sim::MemorySystem* memory() const { return memory_; }

 private:
  void Grow(uint64_t min_capacity);

  Schema schema_;
  sim::MemorySystem* memory_;
  std::vector<uint8_t> data_;
  const uint8_t* shared_data_ = nullptr;  // set for TimingAlias views
  uint64_t base_addr_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t capacity_ = 0;
};

}  // namespace relfab::layout

#endif  // RELFAB_LAYOUT_ROW_TABLE_H_
