#ifndef RELFAB_OBS_TIMESERIES_H_
#define RELFAB_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace relfab::obs {

/// Windowed snapshots of registry instruments over the *simulated*
/// clock. Time is supplied by the caller as a cumulative cycle count
/// (e.g. the workload clock maintained by Fabric telemetry); the class
/// never reads a wall clock, so it is deterministic by construction and
/// passes relfab_analyzer's wall-clock rule.
///
/// Windows are fixed-width in cycles. Each call to Sample(registry, now)
/// reads the tracked instruments; when `now` crosses a window boundary
/// the open window is closed and pushed into a fixed-capacity ring
/// (oldest entries are evicted). Counters are recorded as deltas over
/// the window (rates), gauges as their last reading inside it. Windows
/// with no samples are simply absent — the window index in each closed
/// entry makes gaps explicit.
class TimeSeries {
 public:
  struct Window {
    uint64_t index = 0;         // window number = start_cycles / width
    uint64_t start_cycles = 0;  // inclusive
    uint64_t end_cycles = 0;    // exclusive (start + width)
    uint64_t samples = 0;       // Sample() calls that landed inside
    std::map<std::string, double> values;
  };

  TimeSeries(uint64_t window_cycles, size_t capacity);

  /// Tracks the instrument (counter or gauge) registered under `name`.
  /// Unknown names are simply absent from windows until they appear in
  /// the sampled registry.
  void Track(const std::string& name) { tracked_.push_back(name); }
  const std::vector<std::string>& tracked() const { return tracked_; }

  /// Advances the series to `now_cycles`, closing any window the clock
  /// has moved past. `now_cycles` must be monotonically non-decreasing
  /// across calls (simulated time never runs backwards).
  void Sample(const Registry& registry, uint64_t now_cycles);

  /// Closed windows, oldest first (at most `capacity` of them).
  std::vector<Window> Windows() const;

  uint64_t window_cycles() const { return window_cycles_; }
  size_t capacity() const { return capacity_; }
  /// Total windows ever closed (>= Windows().size() once the ring wraps).
  uint64_t windows_closed() const { return windows_closed_; }

  /// {"window_cycles": w, "capacity": c, "windows":
  ///   [{"index": i, "start_cycles": s, "end_cycles": e,
  ///     "samples": n, "values": {name: v, ...}}, ...]}
  Json ToJson() const;

  /// Human-readable recent-window table (the `\top` throughput pane).
  std::string ToTable(size_t last_n = 8) const;

 private:
  struct Reading {
    double value = 0;
    bool is_counter = false;
  };

  std::map<std::string, Reading> Read(const Registry& registry) const;
  void CloseWindow(uint64_t boundary_index);

  uint64_t window_cycles_;
  size_t capacity_;
  std::vector<std::string> tracked_;

  // Open window state.
  bool open_ = false;
  uint64_t open_index_ = 0;
  uint64_t open_samples_ = 0;
  std::map<std::string, Reading> window_base_;  // readings at window open
  std::map<std::string, Reading> last_;         // most recent readings

  // Ring of closed windows.
  std::vector<Window> ring_;
  size_t ring_head_ = 0;  // next slot to overwrite once full
  uint64_t windows_closed_ = 0;
};

}  // namespace relfab::obs

#endif  // RELFAB_OBS_TIMESERIES_H_
