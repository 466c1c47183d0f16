#ifndef RELFAB_FAULTS_INJECTOR_H_
#define RELFAB_FAULTS_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "faults/fault_plan.h"
#include "obs/registry.h"

namespace relfab::faults {

/// Executes a FaultPlan deterministically. Each armed site gets its own
/// PRNG stream seeded from (plan seed, site name), so the fault sequence
/// a component sees depends only on how many injection opportunities
/// *that component* has hit — never on what other components did in
/// between. That order-independence is what makes chaos runs replayable
/// and bench sweeps thread-count-invariant (with ResetStreams() between
/// cells).
///
/// Components hold a raw pointer (null = unarmed, zero overhead) and
/// resolve their site names to integer handles once at wiring time;
/// the per-opportunity check is then one pointer test plus one PRNG
/// draw. Counters are exported under "faults.*".
class FaultInjector {
 public:
  /// Handle value for a site the plan does not arm.
  static constexpr int kNoSite = -1;

  explicit FaultInjector(FaultPlan plan);

  /// Convenience for mains/benches: builds an injector from
  /// $RELFAB_FAULTS, nullptr when unset/empty-plan. A malformed spec is
  /// an operator error surfaced as kInvalidArgument — callers print the
  /// parse message and decide whether to continue unarmed or exit; the
  /// process never aborts on operator-typed input.
  static StatusOr<std::unique_ptr<FaultInjector>> FromEnv();

  const FaultPlan& plan() const { return plan_; }

  /// Resolves a site name to a handle; kNoSite when the plan does not
  /// arm it (all per-handle entry points accept kNoSite as a no-op).
  int Site(std::string_view site) const;
  const FaultRule& rule(int handle) const { return plan_.rules[handle]; }

  /// One injection opportunity: draws the site's Bernoulli(p) and counts
  /// the check (and the injection, when it fires).
  bool ShouldInject(int handle);

  /// Number of further opportunities until the site's next fault, drawn
  /// from the geometric distribution matching per-opportunity Bernoulli
  /// draws. Lets ultra-hot paths (per-DRAM-line ECC) run a countdown
  /// instead of a PRNG draw per event. p = 0 returns a practically
  /// infinite gap; p = 1 returns 0 (next opportunity fires). Counts
  /// nothing — countdown users report via NoteChecks/NoteInjected when
  /// events actually occur.
  uint64_t NextGap(int handle);

  /// Accounting entry points for countdown-based sites (ShouldInject
  /// counts its own checks/injections).
  void NoteChecks(int handle, uint64_t n);
  void NoteInjected(int handle);

  /// The Status an injected fault at this site surfaces as.
  Status MakeError(int handle, std::string_view detail) const;

  // --- accounting (all no-ops on kNoSite) ---
  void NoteRetry(int handle);
  void NoteExhausted(int handle);
  /// Records a component-level degradation to the host path, keyed by
  /// the site/path that gave up (e.g. "hybrid.select", "query.rm").
  void NoteFallback(std::string_view from);

  /// Deducts `backoff_cycles` from the site's retry budget; false when
  /// the budget (cumulative across the injector's lifetime) would be
  /// exceeded — the caller must stop retrying.
  bool ConsumeRetryBudget(int handle, double backoff_cycles,
                          double budget_cycles);

  uint64_t checks(int handle) const;
  uint64_t injected(int handle) const;
  uint64_t retries(int handle) const;
  uint64_t exhausted(int handle) const;
  uint64_t total_checks() const;
  uint64_t total_injected() const;
  uint64_t total_retries() const;
  uint64_t total_exhausted() const;
  uint64_t total_fallbacks() const;

  /// Re-seeds every site stream and clears retry budgets (counters are
  /// kept). Benches call this per cell so results do not depend on which
  /// worker ran the previous cells.
  void ResetStreams();

  /// Exports "faults.armed", per-site "faults.<site>.{checks,injected,
  /// retries,exhausted}" and "faults.fallbacks.{<from>,total}".
  void ExportTo(obs::Registry* registry) const;

 private:
  struct SiteState {
    Random rng{1};
    uint64_t checks = 0;
    uint64_t injected = 0;
    uint64_t retries = 0;
    uint64_t exhausted = 0;
    double backoff_spent = 0;
  };

  uint64_t SiteSeed(const std::string& site) const;

  FaultPlan plan_;
  std::vector<SiteState> sites_;  // parallel to plan_.rules
  std::vector<std::pair<std::string, uint64_t>> fallbacks_;
  uint64_t total_fallbacks_ = 0;
};

}  // namespace relfab::faults

#endif  // RELFAB_FAULTS_INJECTOR_H_
