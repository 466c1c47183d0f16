#ifndef RELFAB_OBS_REPORT_H_
#define RELFAB_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace relfab::obs {

/// Machine-readable record of one bench (or any instrumented) run:
/// configuration, the simulated cycles of every (series, x) point and a
/// registry snapshot, emitted as a single JSON document so results can be
/// collected and diffed by tooling (see bench/bench_report.schema.json).
class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  /// Free-form run configuration ("rows" -> "1048576", "full" -> "0").
  void SetConfig(const std::string& key, const std::string& value) {
    config_[key] = value;
  }
  void SetConfig(const std::string& key, uint64_t value) {
    config_[key] = std::to_string(value);
  }

  /// One measured point: a (series, x) cell with its simulated cycles.
  void AddResult(const std::string& series, const std::string& x,
                 uint64_t sim_cycles) {
    results_.push_back({series, x, sim_cycles});
  }

  /// Attaches the final registry snapshot.
  void SetMetrics(const Registry& registry) { metrics_ = registry.ToJson(); }

  Json ToJson() const;

  /// Writes ToJson() to `path`, pretty-printed.
  Status WriteTo(const std::string& path) const;

 private:
  struct Result {
    std::string series;
    std::string x;
    uint64_t sim_cycles;
  };

  std::string name_;
  std::map<std::string, std::string> config_;
  std::vector<Result> results_;
  Json metrics_ = Json::Object();
};

}  // namespace relfab::obs

#endif  // RELFAB_OBS_REPORT_H_
