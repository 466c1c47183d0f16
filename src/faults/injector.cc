#include "faults/injector.h"

#include <cmath>

#include "common/logging.h"

namespace relfab::faults {
namespace {

/// "Never" gap for p = 0 sites: large enough that no simulated run
/// reaches it, small enough that countdown arithmetic cannot overflow.
constexpr uint64_t kInfiniteGap = uint64_t{1} << 62;

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  sites_.resize(plan_.rules.size());
  ResetStreams();
}

StatusOr<std::unique_ptr<FaultInjector>> FaultInjector::FromEnv() {
  StatusOr<FaultPlan> plan = FaultPlan::FromEnv();
  if (!plan.ok()) {
    return Status(plan.status().code(), "$" + std::string(FaultPlan::kEnvVar) +
                                            ": " + plan.status().message());
  }
  if (!plan->armed()) return std::unique_ptr<FaultInjector>();
  return std::make_unique<FaultInjector>(*std::move(plan));
}

uint64_t FaultInjector::SiteSeed(const std::string& site) const {
  // seed-dependent and site-dependent; never 0 (xorshift fixed point).
  const uint64_t mixed = plan_.seed ^ NameHash(site);
  return mixed == 0 ? 0x9e3779b97f4a7c15ull : mixed;
}

int FaultInjector::Site(std::string_view site) const {
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    if (plan_.rules[i].site == site) return static_cast<int>(i);
  }
  return kNoSite;
}

bool FaultInjector::ShouldInject(int handle) {
  if (handle < 0) return false;
  SiteState& state = sites_[handle];
  ++state.checks;
  if (!state.rng.Bernoulli(plan_.rules[handle].probability)) return false;
  ++state.injected;
  return true;
}

uint64_t FaultInjector::NextGap(int handle) {
  if (handle < 0) return kInfiniteGap;
  SiteState& state = sites_[handle];
  const double p = plan_.rules[handle].probability;
  if (p <= 0.0) return kInfiniteGap;
  if (p >= 1.0) return 0;
  // Geometric(p): number of failures before the first success of a
  // Bernoulli(p) sequence. Inverse-CDF on one uniform draw.
  const double u = state.rng.NextDouble();  // [0, 1)
  const double gap = std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(gap < static_cast<double>(kInfiniteGap))) return kInfiniteGap;
  return static_cast<uint64_t>(gap);
}

Status FaultInjector::MakeError(int handle, std::string_view detail) const {
  RELFAB_CHECK(handle >= 0) << "MakeError on unarmed site";
  const FaultRule& rule = plan_.rules[handle];
  std::string msg = "injected " + std::string(FaultKindName(rule.kind)) +
                    " at " + rule.site;
  if (!detail.empty()) msg += ": " + std::string(detail);
  return Status(FaultKindCode(rule.kind), std::move(msg));
}

void FaultInjector::NoteChecks(int handle, uint64_t n) {
  if (handle >= 0) sites_[handle].checks += n;
}

void FaultInjector::NoteInjected(int handle) {
  if (handle >= 0) ++sites_[handle].injected;
}

void FaultInjector::NoteRetry(int handle) {
  if (handle >= 0) ++sites_[handle].retries;
}

void FaultInjector::NoteExhausted(int handle) {
  if (handle >= 0) ++sites_[handle].exhausted;
}

void FaultInjector::NoteFallback(std::string_view from) {
  ++total_fallbacks_;
  for (auto& [name, count] : fallbacks_) {
    if (name == from) {
      ++count;
      return;
    }
  }
  fallbacks_.emplace_back(std::string(from), 1);
}

bool FaultInjector::ConsumeRetryBudget(int handle, double backoff_cycles,
                                       double budget_cycles) {
  if (handle < 0) return true;
  SiteState& state = sites_[handle];
  if (state.backoff_spent + backoff_cycles > budget_cycles) return false;
  state.backoff_spent += backoff_cycles;
  return true;
}

uint64_t FaultInjector::checks(int handle) const {
  return handle < 0 ? 0 : sites_[handle].checks;
}
uint64_t FaultInjector::injected(int handle) const {
  return handle < 0 ? 0 : sites_[handle].injected;
}
uint64_t FaultInjector::retries(int handle) const {
  return handle < 0 ? 0 : sites_[handle].retries;
}
uint64_t FaultInjector::exhausted(int handle) const {
  return handle < 0 ? 0 : sites_[handle].exhausted;
}

uint64_t FaultInjector::total_checks() const {
  uint64_t n = 0;
  for (const SiteState& s : sites_) n += s.checks;
  return n;
}
uint64_t FaultInjector::total_injected() const {
  uint64_t n = 0;
  for (const SiteState& s : sites_) n += s.injected;
  return n;
}
uint64_t FaultInjector::total_retries() const {
  uint64_t n = 0;
  for (const SiteState& s : sites_) n += s.retries;
  return n;
}
uint64_t FaultInjector::total_exhausted() const {
  uint64_t n = 0;
  for (const SiteState& s : sites_) n += s.exhausted;
  return n;
}
uint64_t FaultInjector::total_fallbacks() const { return total_fallbacks_; }

void FaultInjector::ResetStreams() {
  for (size_t i = 0; i < sites_.size(); ++i) {
    // relfab-lint: allow(ambient-random) the one sanctioned derived-seeding path: per-site streams seeded from (plan seed, site name) only — see docs/static-analysis.md
    sites_[i].rng = Random(SiteSeed(plan_.rules[i].site));
    sites_[i].backoff_spent = 0;
  }
}

void FaultInjector::ExportTo(obs::Registry* registry) const {
  registry->Set("faults.armed", plan_.armed() ? 1 : 0);
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const std::string prefix = "faults." + plan_.rules[i].site;
    registry->counter(prefix + ".checks")->Set(sites_[i].checks);
    registry->counter(prefix + ".injected")->Set(sites_[i].injected);
    registry->counter(prefix + ".retries")->Set(sites_[i].retries);
    registry->counter(prefix + ".exhausted")->Set(sites_[i].exhausted);
  }
  for (const auto& [from, count] : fallbacks_) {
    registry->counter("faults.fallbacks." + from)->Set(count);
  }
  registry->counter("faults.fallbacks.total")->Set(total_fallbacks_);
}

}  // namespace relfab::faults
