#ifndef RELFAB_ENGINE_QUERY_H_
#define RELFAB_ENGINE_QUERY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/expr.h"
#include "layout/schema.h"

namespace relfab::engine {

enum class AggFunc : uint8_t { kCount, kSum, kMin, kMax, kAvg };

std::string_view AggFuncToString(AggFunc func);

/// One output aggregate: func applied to an ExprPool node (ignored for
/// kCount).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  int32_t expr = -1;
};

/// A (restricted) analytical query: conjunctive predicates, then either
/// aggregation (optionally grouped) or pure projection. This is the query
/// family of the paper's evaluation: projectivity/selectivity sweeps and
/// TPC-H Q1/Q6.
struct QuerySpec {
  ExprPool exprs;
  std::vector<Predicate> predicates;
  std::vector<AggSpec> aggregates;
  /// Group-key columns (integer, date or char<=8 columns).
  std::vector<uint32_t> group_by;
  /// For aggregate-free queries: columns to project; the engines fold the
  /// projected values into a checksum so results stay comparable without
  /// materializing output.
  std::vector<uint32_t> projection;

  /// Distinct columns a matched row's sink reads (aggregate inputs,
  /// group keys, projection), in schema-offset order.
  std::vector<uint32_t> OutputColumns(const layout::Schema& schema) const;

  /// OutputColumns plus the predicate columns: every distinct column the
  /// query touches, in schema-offset order.
  std::vector<uint32_t> ReferencedColumns(const layout::Schema& schema) const;

  /// Sanity-checks column indices and group-key types.
  Status Validate(const layout::Schema& schema) const;

  /// Total arithmetic ops across aggregate expressions (cost accounting).
  uint32_t AggOpCount() const;
};

/// Group key: up to 4 packed int64 values (char keys <= 8 bytes pack into
/// one value).
struct GroupKey {
  std::array<int64_t, 4> values{};
  uint32_t size = 0;

  friend bool operator==(const GroupKey& a, const GroupKey& b) {
    if (a.size != b.size) return false;
    for (uint32_t i = 0; i < a.size; ++i) {
      if (a.values[i] != b.values[i]) return false;
    }
    return true;
  }
  friend bool operator<(const GroupKey& a, const GroupKey& b) {
    if (a.size != b.size) return a.size < b.size;
    for (uint32_t i = 0; i < a.size; ++i) {
      if (a.values[i] != b.values[i]) return a.values[i] < b.values[i];
    }
    return false;
  }
};

/// Result of executing a QuerySpec. All three engines produce identical
/// functional results for the same query; only the simulated cycles
/// differ.
struct QueryResult {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  /// Ungrouped aggregate values, one per AggSpec (kAvg already divided).
  std::vector<double> aggregates;
  /// Grouped results, sorted by key.
  std::vector<std::pair<GroupKey, std::vector<double>>> groups;
  /// Order-independent checksum for pure-projection queries.
  double projection_checksum = 0;
  /// Simulated elapsed cycles for the execution (filled by the engine).
  uint64_t sim_cycles = 0;
  /// True when shards with no live replica were skipped under
  /// QueryOptions::allow_partial — the answer covers only the surviving
  /// shards. Never set on the default (fail-with-kUnavailable) path.
  bool partial = false;

  /// Functional equality (ignores sim_cycles); doubles compared with a
  /// relative tolerance to absorb summation-order differences.
  bool SameAnswer(const QueryResult& other, double rel_tol = 1e-9) const;

  std::string ToString() const;
};

/// Running state for one aggregate.
struct AggState {
  double sum = 0;
  double min = 0;
  double max = 0;
  uint64_t count = 0;

  void Update(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    ++count;
  }

  double Final(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return static_cast<double>(count);
      case AggFunc::kSum:
        return sum;
      case AggFunc::kMin:
        return count == 0 ? 0 : min;
      case AggFunc::kMax:
        return count == 0 ? 0 : max;
      case AggFunc::kAvg:
        return count == 0 ? 0 : sum / static_cast<double>(count);
    }
    return 0;
  }
};

}  // namespace relfab::engine

#endif  // RELFAB_ENGINE_QUERY_H_
