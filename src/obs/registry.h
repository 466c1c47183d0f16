#ifndef RELFAB_OBS_REGISTRY_H_
#define RELFAB_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/json.h"

namespace relfab::obs {

/// Monotonic event counter. The whole stack is single-threaded per
/// MemorySystem, so increments are plain (unsynchronized) integer adds —
/// the zero-overhead contract of the observability layer.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  void Set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time numeric reading (hit rates, clock values, table sizes).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Log-linear histogram for latency/size distributions: buckets double
/// from 1 with `kSubBuckets` linear sub-buckets per octave, giving a
/// bounded-error (< 1/kSubBuckets relative) sketch with a few dozen
/// fixed buckets and O(1) insert — the classic HDR-style layout.
class Histogram {
 public:
  static constexpr uint32_t kSubBuckets = 4;
  static constexpr uint32_t kNumBuckets = 64 * kSubBuckets;

  void Observe(double v) {
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
    ++buckets_[BucketFor(v)];
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// Upper-bound estimate of the q-quantile (0 <= q <= 1) from the
  /// bucketed sketch.
  double Quantile(double q) const;

  /// Accumulates another histogram's population into this one.
  void Merge(const Histogram& other);

  /// Lower edge of bucket `b` (value v lands in bucket b iff
  /// edge(b) <= v < edge(b+1)).
  static double BucketLowerEdge(uint32_t b);

  const uint64_t* buckets() const { return buckets_; }

 private:
  static uint32_t BucketFor(double v);

  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  uint64_t buckets_[kNumBuckets] = {};
};

/// Central metrics spine (the tentpole of relfab::obs): components obtain
/// stable handles by hierarchical dotted name ("sim.l1.hits",
/// "rm.gather.lines") and bump them directly; exporters walk the registry
/// to produce a JSON snapshot or a human table. Handle lookup is a map
/// probe done once at wiring time; the handles themselves are plain
/// integers, so steady-state cost is identical to a member counter.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. The pointer is stable for the registry's lifetime.
  Counter* counter(const std::string& name) {
    return Lookup(&counters_, name);
  }
  Gauge* gauge(const std::string& name) { return Lookup(&gauges_, name); }
  Histogram* histogram(const std::string& name) {
    return Lookup(&histograms_, name);
  }

  /// One-shot convenience for non-hot-path call sites.
  void Add(const std::string& name, uint64_t delta) {
    counter(name)->Inc(delta);
  }
  void Set(const std::string& name, double v) { gauge(name)->Set(v); }
  void Observe(const std::string& name, double v) {
    histogram(name)->Observe(v);
  }

  /// Zeroes every registered instrument (handles stay valid).
  void Reset();

  /// Accumulates `other`'s counters and histograms into this registry;
  /// gauges take the other's latest reading. Used to combine per-shard or
  /// per-run registries into one report.
  void MergeFrom(const Registry& other);

  /// Full snapshot as a JSON document:
  ///   {"counters": {name: n, ...},
  ///    "gauges": {name: x, ...},
  ///    "histograms": {name: {"count": n, "sum": s, "min": m, "max": M,
  ///                          "p50": ..., "p90": ..., "p99": ..., "p999": ...,
  ///                          "buckets": [[lower_edge, upper_edge, count],
  ///                                      ...]}}}
  Json ToJson() const;

  /// Multi-line human-readable table, grouped by name prefix.
  std::string ToTable() const;

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms()
      const {
    return histograms_;
  }

 private:
  template <typename T>
  static T* Lookup(std::map<std::string, std::unique_ptr<T>>* instruments,
                   const std::string& name) {
    auto it = instruments->find(name);
    if (it == instruments->end()) {
      it = instruments->emplace(name, std::make_unique<T>()).first;
    }
    return it->second.get();
  }

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace relfab::obs

#endif  // RELFAB_OBS_REGISTRY_H_
