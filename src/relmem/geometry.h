#ifndef RELFAB_RELMEM_GEOMETRY_H_
#define RELFAB_RELMEM_GEOMETRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "layout/schema.h"

namespace relfab::relmem {

/// Comparison operator of a hardware-pushed predicate (§IV-B of the paper
/// proposes pushing selection into the fabric).
enum class CompareOp : uint8_t {
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
};

std::string_view CompareOpToString(CompareOp op);

/// One conjunct of a hardware predicate: `column <op> literal`. Literals
/// are carried as both int64 and double; the column type selects which
/// is used.
struct HwPredicate {
  uint32_t column = 0;
  CompareOp op = CompareOp::kLt;
  int64_t int_operand = 0;
  double double_operand = 0;

  static HwPredicate Int(uint32_t column, CompareOp op, int64_t operand) {
    return HwPredicate{column, op, operand,
                       static_cast<double>(operand)};
  }
  static HwPredicate Double(uint32_t column, CompareOp op, double operand) {
    return HwPredicate{column, op, static_cast<int64_t>(operand), operand};
  }

  /// `value <op> double_operand`: the one predicate compare. The software
  /// engines, the fabric and relational storage all evaluate conjuncts
  /// through it, so pushing a predicate down never changes an answer. A
  /// double compare is exact for every integer below 2^53.
  bool Matches(double value) const {
    switch (op) {
      case CompareOp::kLt:
        return value < double_operand;
      case CompareOp::kLe:
        return value <= double_operand;
      case CompareOp::kGt:
        return value > double_operand;
      case CompareOp::kGe:
        return value >= double_operand;
      case CompareOp::kEq:
        return value == double_operand;
      case CompareOp::kNe:
        return value != double_operand;
    }
    return false;
  }
};

/// Snapshot visibility filter for MVCC (§III-C): the fabric compares the
/// per-row begin/end timestamps against `read_ts` and ships only versions
/// valid at the snapshot. Timestamp columns live inside the row like any
/// other attribute.
struct VisibilityFilter {
  bool enabled = false;
  uint32_t begin_ts_column = 0;
  uint32_t end_ts_column = 0;
  uint64_t read_ts = 0;
};

/// A *data geometry* (the paper's term): an arbitrary subset of a
/// relational table — any group of columns, over a row range, optionally
/// filtered by hardware predicates and/or an MVCC snapshot. Configuring
/// an ephemeral variable means handing one of these to the fabric.
struct Geometry {
  /// Projected columns, in output order. Must be non-empty and unique.
  std::vector<uint32_t> columns;
  /// Row range [begin_row, end_row); end_row is clamped to the table.
  uint64_t begin_row = 0;
  uint64_t end_row = ~0ull;
  /// Conjunctive predicates evaluated in the fabric (empty = ship all
  /// rows). Predicate columns need not be projected.
  std::vector<HwPredicate> predicates;
  /// MVCC snapshot filter.
  VisibilityFilter visibility;

  /// Geometry projecting the named columns of `schema`.
  static StatusOr<Geometry> Project(const layout::Schema& schema,
                                    const std::vector<std::string>& names);
  /// Geometry projecting columns [0, k) — the shape of the paper's
  /// projectivity sweeps.
  static Geometry FirstColumns(uint32_t k);

  /// Checks column indices / duplicates against a schema.
  Status Validate(const layout::Schema& schema) const;

  /// Packed width of one output row (sum of projected column widths).
  uint32_t OutputRowBytes(const layout::Schema& schema) const;

  /// All columns the fabric must *read* per row: projected + predicate +
  /// timestamp columns, deduplicated, sorted by schema offset.
  std::vector<uint32_t> SourceColumns(const layout::Schema& schema) const;

  std::string ToString(const layout::Schema& schema) const;
};

}  // namespace relfab::relmem

#endif  // RELFAB_RELMEM_GEOMETRY_H_
