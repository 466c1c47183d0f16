#include "faults/health.h"

#include <sstream>

namespace relfab::faults {

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDead: return "dead";
  }
  return "?";
}

void HealthRegistry::ArmKills(const FaultPlan& plan) {
  seed_ = plan.seed;
  kill_rules_.clear();
  for (const FaultRule& rule : plan.rules) {
    if (rule.kind == FaultKind::kKill) kill_rules_.push_back(rule);
  }
  // Arming is a session boundary: the same plan replays the same death
  // schedule from a clean slate.
  components_.clear();
  deaths_.clear();
  draws_ = 0;
  transitions_ = 0;
}

HealthRegistry::Component& HealthRegistry::Touch(
    const std::string& component) {
  return components_[component];
}

HealthState HealthRegistry::state(const std::string& component) const {
  const auto it = components_.find(component);
  return it == components_.end() ? HealthState::kHealthy : it->second.state;
}

void HealthRegistry::Transition(const std::string& component, Component* c,
                                HealthState next, const std::string& cause,
                                uint64_t now_cycles) {
  if (c->state == next) return;
  ++transitions_;
  if (recorder_ != nullptr) {
    recorder_->Log("health",
                   component + ": " + std::string(HealthStateName(c->state)) +
                       " -> " + std::string(HealthStateName(next)) +
                       (cause.empty() ? "" : " (" + cause + ")"),
                   now_cycles);
  }
  c->state = next;
}

bool HealthRegistry::DrawKill(std::string_view site,
                              const std::string& component,
                              uint64_t now_cycles) {
  const FaultRule* rule = nullptr;
  for (const FaultRule& r : kill_rules_) {
    if (r.site == site) {
      rule = &r;
      break;
    }
  }
  if (rule == nullptr) return false;
  Component& c = Touch(component);
  if (c.state == HealthState::kDead) return false;
  if (!c.rng_seeded) {
    // Derived seeding only: (plan seed, site name, component name) —
    // the same sanctioned scheme as FaultInjector::ResetStreams.
    uint64_t mixed =
        seed_ ^ NameHash(site) ^ (NameHash(component) * 0x9e3779b97f4a7c15ull);
    if (mixed == 0) mixed = 0x9e3779b97f4a7c15ull;
    // relfab-lint: allow(ambient-random) derived seeding from (plan seed, site, component) only — scheduling-invariant kill streams, see docs/robustness.md
    c.rng = Random(mixed);
    c.rng_seeded = true;
  }
  ++draws_;
  ++c.draws;
  if (!c.rng.Bernoulli(rule->probability)) return false;
  DeathRecord death;
  death.component = component;
  death.site = std::string(site);
  death.cause = "injected kill at " + std::string(site);
  death.cycles = now_cycles;
  death.draw = c.draws;
  deaths_.push_back(death);
  Transition(component, &c, HealthState::kDead, death.cause, now_cycles);
  return true;
}

void HealthRegistry::MarkDead(const std::string& component,
                              const std::string& cause,
                              uint64_t now_cycles) {
  Component& c = Touch(component);
  if (c.state == HealthState::kDead) return;
  DeathRecord death;
  death.component = component;
  death.cause = cause;
  death.cycles = now_cycles;
  death.draw = c.draws;
  deaths_.push_back(death);
  Transition(component, &c, HealthState::kDead, cause, now_cycles);
}

void HealthRegistry::ReportSuccess(const std::string& component) {
  Component& c = Touch(component);
  if (c.state == HealthState::kDead) return;
  c.consecutive_failures = 0;
  if (c.state == HealthState::kDegraded) {
    if (++c.consecutive_successes >= kRecoverAfterSuccesses) {
      Transition(component, &c, HealthState::kHealthy,
                 "circuit breaker recovered", 0);
      c.consecutive_successes = 0;
    }
  }
}

void HealthRegistry::ReportFailure(const std::string& component,
                                   const std::string& cause,
                                   uint64_t now_cycles) {
  Component& c = Touch(component);
  if (c.state == HealthState::kDead) return;
  c.consecutive_successes = 0;
  if (++c.consecutive_failures >= kDegradeAfterFailures &&
      c.state == HealthState::kHealthy) {
    Transition(component, &c, HealthState::kDegraded,
               "circuit breaker: " + std::to_string(c.consecutive_failures) +
                   " consecutive failures (" + cause + ")",
               now_cycles);
  }
}

void HealthRegistry::ReportExhausted(const std::string& component,
                                     const std::string& cause,
                                     uint64_t now_cycles) {
  Component& c = Touch(component);
  if (c.state == HealthState::kDead) return;
  c.consecutive_successes = 0;
  ++c.consecutive_failures;
  if (c.state == HealthState::kHealthy) {
    Transition(component, &c, HealthState::kDegraded,
               "retry budget exhausted (" + cause + ")", now_cycles);
  }
}

size_t HealthRegistry::CountInState(HealthState state) const {
  size_t n = 0;
  for (const auto& [name, c] : components_) {
    if (c.state == state) ++n;
  }
  return n;
}

std::string HealthRegistry::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, c] : components_) {
    if (!first) os << " ";
    first = false;
    os << name << "=" << HealthStateName(c.state);
  }
  if (first) os << "(no components tracked)";
  return os.str();
}

void HealthRegistry::ExportTo(obs::Registry* registry) const {
  registry->gauge("health.armed")->Set(armed() ? 1 : 0);
  registry->gauge("health.healthy")
      ->Set(static_cast<double>(CountInState(HealthState::kHealthy)));
  registry->gauge("health.degraded")
      ->Set(static_cast<double>(CountInState(HealthState::kDegraded)));
  registry->gauge("health.dead")
      ->Set(static_cast<double>(CountInState(HealthState::kDead)));
  registry->counter("health.draws")->Set(draws_);
  registry->counter("health.deaths")->Set(deaths_.size());
  registry->counter("health.transitions")->Set(transitions_);
  for (const auto& [name, c] : components_) {
    registry->gauge("health." + name + ".state")
        ->Set(static_cast<double>(static_cast<int>(c.state)));
  }
}

}  // namespace relfab::faults
