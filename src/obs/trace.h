#ifndef RELFAB_OBS_TRACE_H_
#define RELFAB_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace relfab::obs {

class FlightRecorder;

/// Span-based tracer over the *simulated* clock. Components open RAII
/// Spans around units of work (one query operator, one column-group
/// gather chunk, one MVCC commit); the tracer records them as Chrome
/// trace-event "complete" events that load directly into Perfetto or
/// chrome://tracing, with simulated cycles presented as microseconds.
///
/// Disabled by default: a null or disabled tracer makes Span construction
/// a single branch and records nothing, so traced code paths cost nothing
/// in normal runs.
class Tracer {
 public:
  struct Event {
    std::string name;
    std::string category;
    uint64_t start_cycles = 0;
    uint64_t duration_cycles = 0;
    uint32_t depth = 0;  // nesting level at emission (0 = top level)
    uint32_t track = 0;  // 0 = main simulated-CPU track (see RegisterTrack)
    std::vector<std::pair<std::string, std::string>> args;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Wires the simulated clock (e.g. [&m] { return m.ElapsedCycles(); }).
  /// Until a clock is set the tracer stays at timestamp 0.
  void SetClock(std::function<uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Attaches a flight recorder: every span the tracer sees is also
  /// pushed into the recorder's fixed-size ring, even while full
  /// tracing is disabled. Null detaches. The recorder is not owned.
  void set_flight_recorder(FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  FlightRecorder* flight_recorder() const { return recorder_; }

  /// True when spans should be recorded at all — either full tracing is
  /// on or a flight recorder is capturing the recent-span ring.
  bool active() const { return enabled_ || recorder_ != nullptr; }

  uint64_t Now() const {
    const uint64_t t = clock_ ? clock_() : 0;
    // The simulated clock can be reset between timing windows; keep the
    // trace monotonic so spans never end before they start.
    if (t + offset_ < last_ts_) offset_ = last_ts_ - t;
    last_ts_ = t + offset_;
    return last_ts_;
  }

  /// Low-level emission for events whose timing lives in another domain
  /// (e.g. the storage clock of RsEngine). Feeds the full trace buffer
  /// when tracing is enabled and the flight-recorder ring when one is
  /// attached (out of line: FlightRecorder is incomplete here).
  void Emit(Event event);

  /// Registers a named timeline separate from the main simulated-CPU
  /// track (track 0). Events carrying the returned id render as their own
  /// row in the trace viewer — components with an independent clock
  /// domain (the RS device pipeline, say) get a real timeline instead of
  /// being folded into the CPU one. Idempotent per name.
  uint32_t RegisterTrack(const std::string& name) {
    for (uint32_t i = 0; i < tracks_.size(); ++i) {
      if (tracks_[i] == name) return i + 1;
    }
    tracks_.push_back(name);
    return static_cast<uint32_t>(tracks_.size());
  }

  /// Names of registered extra tracks (index i is track id i + 1).
  const std::vector<std::string>& tracks() const { return tracks_; }

  const std::vector<Event>& events() const { return events_; }
  void Clear() {
    events_.clear();
    // Keep the monotonic floor: already-recorded traces stay ordered.
  }

  /// Current span nesting depth (spans still open).
  uint32_t depth() const { return depth_; }

  /// Chrome trace-event JSON: {"traceEvents": [...], ...}. Timestamps are
  /// simulated cycles reported in the format's microsecond field.
  Json ToJson() const;

  /// Writes ToJson() to `path` (pretty-printed).
  Status WriteJson(const std::string& path) const;

 private:
  friend class Span;

  bool enabled_ = false;
  std::function<uint64_t()> clock_;
  mutable uint64_t last_ts_ = 0;
  mutable uint64_t offset_ = 0;
  uint32_t depth_ = 0;
  std::vector<Event> events_;
  std::vector<std::string> tracks_;
  FlightRecorder* recorder_ = nullptr;
};

/// RAII span: records [construction, destruction) as one complete event.
/// With a null or disabled tracer every method is a no-op.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string category = "relfab")
      : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.start_cycles = tracer_->Now();
    event_.depth = tracer_->depth_++;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value argument shown in the trace viewer.
  void AddArg(const std::string& key, std::string value) {
    if (tracer_ == nullptr) return;
    event_.args.emplace_back(key, std::move(value));
  }
  void AddArg(const std::string& key, uint64_t value) {
    if (tracer_ == nullptr) return;
    AddArg(key, std::to_string(value));
  }

  /// Closes the span early (destruction becomes a no-op).
  void End() {
    if (tracer_ == nullptr) return;
    const uint64_t now = tracer_->Now();
    event_.duration_cycles = now - event_.start_cycles;
    --tracer_->depth_;
    tracer_->Emit(std::move(event_));
    tracer_ = nullptr;
  }

  ~Span() { End(); }

 private:
  Tracer* tracer_;
  Tracer::Event event_;
};

}  // namespace relfab::obs

#endif  // RELFAB_OBS_TRACE_H_
