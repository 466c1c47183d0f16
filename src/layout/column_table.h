#ifndef RELFAB_LAYOUT_COLUMN_TABLE_H_
#define RELFAB_LAYOUT_COLUMN_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "layout/row_table.h"
#include "layout/schema.h"
#include "sim/memory_system.h"

namespace relfab::layout {

/// Column-major copy of a table: one densely packed array per column,
/// each with its own simulated address range. This is the baseline the
/// paper calls COL — a materialized columnar duplicate of the row-store
/// base data (exactly the duplication Relational Fabric removes).
class ColumnTable {
 public:
  /// Materializes a columnar copy of `rows`. The conversion cost is not
  /// charged to the simulator: the COL baseline assumes the copy already
  /// exists (the paper's baseline does too).
  ColumnTable(const RowTable& rows, sim::MemorySystem* memory);

  ColumnTable(const ColumnTable&) = delete;
  ColumnTable& operator=(const ColumnTable&) = delete;
  ColumnTable(ColumnTable&&) = default;
  ColumnTable& operator=(ColumnTable&&) = default;

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }

  /// Simulated address of value `row` of column `col`.
  uint64_t ValueAddress(uint32_t col, uint64_t row) const {
    return base_addrs_[col] + row * schema_.width(col);
  }
  uint64_t ColumnAddress(uint32_t col) const { return base_addrs_[col]; }
  uint64_t column_bytes(uint32_t col) const {
    return num_rows_ * schema_.width(col);
  }

  int64_t GetInt(uint32_t col, uint64_t row) const {
    return LoadInt(schema_.type(col), ValuePtr(col, row));
  }

  double GetDouble(uint32_t col, uint64_t row) const {
    return LoadDouble(schema_.type(col), ValuePtr(col, row));
  }

  std::string_view GetChar(uint32_t col, uint64_t row) const {
    RELFAB_DCHECK(schema_.type(col) == ColumnType::kChar);
    return std::string_view(
        reinterpret_cast<const char*>(ValuePtr(col, row)),
        schema_.width(col));
  }

  sim::MemorySystem* memory() const { return memory_; }

 private:
  const uint8_t* ValuePtr(uint32_t col, uint64_t row) const {
    RELFAB_DCHECK(row < num_rows_);
    return columns_[col].data() + row * schema_.width(col);
  }

  Schema schema_;
  sim::MemorySystem* memory_ = nullptr;
  uint64_t num_rows_ = 0;
  std::vector<std::vector<uint8_t>> columns_;
  std::vector<uint64_t> base_addrs_;
};

}  // namespace relfab::layout

#endif  // RELFAB_LAYOUT_COLUMN_TABLE_H_
