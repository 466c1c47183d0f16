#ifndef RELFAB_LAYOUT_SCHEMA_H_
#define RELFAB_LAYOUT_SCHEMA_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/statusor.h"

namespace relfab::layout {

/// Fixed-width column types. The paper's base data is a packed
/// row-oriented relational table of fixed-width attributes (Fig. 3);
/// variable-width data would be stored via fixed-width references.
enum class ColumnType : uint8_t {
  kInt32,
  kInt64,
  kDouble,
  kDate,  // days since epoch, stored as int32
  kChar,  // fixed-width character field
};

/// Byte width of a type; kChar takes its width from the column definition.
uint32_t FixedWidthOf(ColumnType type);

/// True for types whose values compare as int64 (everything but kDouble /
/// kChar).
bool IsIntegerType(ColumnType type);

std::string_view ColumnTypeToString(ColumnType type);

/// Decodes the integer field (kInt32, kDate or kInt64) stored at `p`,
/// widened to int64. Tables, views and cursors all read their fields
/// through LoadInt and LoadDouble; callers charge the simulator.
inline int64_t LoadInt(ColumnType type, const uint8_t* p) {
  switch (type) {
    case ColumnType::kInt32:
    case ColumnType::kDate: {
      int32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case ColumnType::kInt64: {
      int64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
    default:
      RELFAB_CHECK(false) << "LoadInt on non-integer type "
                          << ColumnTypeToString(type);
      return 0;
  }
}

/// Decodes the numeric field stored at `p`: kDouble as stored, the
/// integer types widened to double.
inline double LoadDouble(ColumnType type, const uint8_t* p) {
  if (type == ColumnType::kDouble) {
    double v;
    std::memcpy(&v, p, 8);
    return v;
  }
  return static_cast<double>(LoadInt(type, p));
}

/// One column definition inside a schema.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  /// Byte width; only meaningful for kChar (otherwise derived from type).
  uint32_t width = 0;
};

/// Ordered collection of fixed-width columns; knows each column's byte
/// offset inside a packed row. Immutable once built.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema; fails on duplicate/empty names or zero-width kChar.
  static StatusOr<Schema> Create(std::vector<ColumnDef> columns);

  /// Convenience: a schema of `n` equally-typed columns named
  /// "c0".."c{n-1}" — the synthetic-table shape used throughout the
  /// paper's microbenchmarks (4-byte columns, 64-byte rows).
  static Schema Uniform(uint32_t num_columns, ColumnType type,
                        uint32_t char_width = 0);

  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  uint32_t row_bytes() const { return row_bytes_; }

  const ColumnDef& column(uint32_t idx) const { return columns_[idx]; }
  uint32_t offset(uint32_t idx) const { return offsets_[idx]; }
  uint32_t width(uint32_t idx) const { return widths_[idx]; }
  ColumnType type(uint32_t idx) const { return columns_[idx].type; }

  /// Index of a column by name.
  StatusOr<uint32_t> IndexOf(std::string_view name) const;

  /// Human-readable description ("key:int64 @0, qty:int32 @8, ...").
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<ColumnDef> columns_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> widths_;
  uint32_t row_bytes_ = 0;
};

}  // namespace relfab::layout

#endif  // RELFAB_LAYOUT_SCHEMA_H_
