#include "faults/fault_plan.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace relfab::faults {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits `s` on `sep`, trimming each piece; empty pieces are dropped so
/// trailing separators ("a;b;") parse cleanly.
std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const size_t pos = s.find(sep);
    const std::string_view piece =
        Trim(pos == std::string_view::npos ? s : s.substr(0, pos));
    if (!piece.empty()) out.push_back(piece);
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

StatusOr<double> ParseDouble(std::string_view token, std::string_view what) {
  const std::string buf(token);  // strtod needs a NUL terminator
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty() || errno == ERANGE ||
      !std::isfinite(v)) {
    return Status::InvalidArgument("fault spec: bad " + std::string(what) +
                                   " value '" + buf + "'");
  }
  return v;
}

StatusOr<uint64_t> ParseU64(std::string_view token, std::string_view what) {
  const std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
  if (end != buf.c_str() + buf.size() || buf.empty() || errno == ERANGE) {
    return Status::InvalidArgument("fault spec: bad " + std::string(what) +
                                   " value '" + buf + "'");
  }
  return static_cast<uint64_t>(v);
}

StatusOr<FaultKind> ParseKind(std::string_view token) {
  if (token == "stall") return FaultKind::kStall;
  if (token == "timeout") return FaultKind::kTimeout;
  if (token == "corruption") return FaultKind::kCorruption;
  if (token == "unavailable") return FaultKind::kUnavailable;
  if (token == "conflict") return FaultKind::kConflict;
  if (token == "kill") return FaultKind::kKill;
  return Status::InvalidArgument("fault spec: unknown kind '" +
                                 std::string(token) + "'");
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStall: return "stall";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kCorruption: return "corruption";
    case FaultKind::kUnavailable: return "unavailable";
    case FaultKind::kConflict: return "conflict";
    case FaultKind::kKill: return "kill";
  }
  return "?";
}

StatusCode FaultKindCode(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStall: return StatusCode::kIoError;  // if forced
    case FaultKind::kTimeout: return StatusCode::kIoError;
    case FaultKind::kCorruption: return StatusCode::kCorruption;
    case FaultKind::kUnavailable: return StatusCode::kResourceExhausted;
    case FaultKind::kConflict: return StatusCode::kAborted;
    case FaultKind::kKill: return StatusCode::kUnavailable;
  }
  return StatusCode::kInternal;
}

bool IsFabricFault(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kResourceExhausted:
    // A dead component is the extreme fabric fault: the work can still
    // complete on the host path / a live replica, it just never retries.
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

const std::vector<SiteInfo>& KnownSites() {
  // Default penalties are rough simulated-cycle costs of the physical
  // recovery action at each layer (re-issuing a gather descriptor, an
  // ECC correct-and-scrub, a flash read retry, ...), same order of
  // magnitude as the neighbouring CostModel/SsdModel parameters.
  static const std::vector<SiteInfo> kSites = {
      {"rm.config", FaultKind::kUnavailable, 5000,
       "fabric rejects the ephemeral-view descriptor"},
      {"rm.stall", FaultKind::kStall, 2000,
       "transformer pipeline bubble while producing a chunk"},
      {"rm.gather", FaultKind::kTimeout, 4000,
       "bank-parallel gather misses its deadline"},
      {"dram.ecc", FaultKind::kStall, 600,
       "correctable DRAM ECC event (per cache line touched)"},
      {"ssd.read", FaultKind::kTimeout, 45000,
       "internal flash page read fails and is re-issued"},
      {"ssd.ship", FaultKind::kTimeout, 6000,
       "host interface transfer fails and is re-issued"},
      {"mvcc.commit", FaultKind::kTimeout, 2500,
       "commit machinery hiccup (visibility-bit publish retry)"},
      // Kill sites: permanent component death, drawn by the
      // HealthRegistry (one opportunity per serving attempt) instead of
      // the per-operation injector. No penalty cycles — the cost of a
      // death is the failover / degradation it forces.
      {"shard.kill", FaultKind::kKill, 0,
       "a shard replica dies permanently (failover to the next replica)"},
      {"rm.kill", FaultKind::kKill, 0,
       "the RM transformer dies permanently (planner avoids it)"},
      {"rs.kill", FaultKind::kKill, 0,
       "the computational-SSD engine dies permanently (host scans only)"},
      {"node.kill", FaultKind::kKill, 0,
       "a simulated cluster node dies permanently (its replicas fail over "
       "to other nodes)"},
  };
  return kSites;
}

const SiteInfo* FindSite(std::string_view name) {
  for (const SiteInfo& site : KnownSites()) {
    if (name == site.name) return &site;
  }
  return nullptr;
}

bool IsKillSite(std::string_view name) {
  constexpr std::string_view kSuffix = ".kill";
  return name.size() > kSuffix.size() &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

uint64_t NameHash(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

StatusOr<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  for (std::string_view entry : Split(spec, ';')) {
    const size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      // Only the global 'seed=N' pseudo-entry may omit the site prefix.
      const size_t eq = entry.find('=');
      if (eq != std::string_view::npos && Trim(entry.substr(0, eq)) == "seed") {
        RELFAB_ASSIGN_OR_RETURN(plan.seed,
                                ParseU64(Trim(entry.substr(eq + 1)), "seed"));
        continue;
      }
      return Status::InvalidArgument(
          "fault spec: entry '" + std::string(entry) +
          "' is not 'site:params' or 'seed=N'");
    }
    const std::string_view site_name = Trim(entry.substr(0, colon));
    const SiteInfo* info = FindSite(site_name);
    if (info == nullptr) {
      return Status::InvalidArgument("fault spec: unknown site '" +
                                     std::string(site_name) + "'");
    }
    if (plan.Find(site_name) != nullptr) {
      return Status::InvalidArgument("fault spec: duplicate site '" +
                                     std::string(site_name) + "'");
    }
    FaultRule rule;
    rule.site = std::string(site_name);
    rule.kind = info->default_kind;
    rule.penalty_cycles = info->default_penalty_cycles;
    for (std::string_view param : Split(entry.substr(colon + 1), ',')) {
      const size_t eq = param.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument("fault spec: parameter '" +
                                       std::string(param) +
                                       "' is not 'key=value'");
      }
      const std::string_view key = Trim(param.substr(0, eq));
      const std::string_view value = Trim(param.substr(eq + 1));
      if (key == "p") {
        RELFAB_ASSIGN_OR_RETURN(rule.probability,
                                ParseDouble(value, "probability"));
        if (rule.probability < 0.0 || rule.probability > 1.0) {
          return Status::InvalidArgument(
              "fault spec: probability " + std::string(value) +
              " for site '" + rule.site + "' is outside [0, 1]");
        }
      } else if (key == "kind") {
        RELFAB_ASSIGN_OR_RETURN(rule.kind, ParseKind(value));
      } else if (key == "cycles") {
        RELFAB_ASSIGN_OR_RETURN(rule.penalty_cycles,
                                ParseDouble(value, "cycles"));
        if (rule.penalty_cycles < 0.0) {
          return Status::InvalidArgument(
              "fault spec: negative penalty cycles for site '" + rule.site +
              "'");
        }
      } else {
        return Status::InvalidArgument("fault spec: unknown parameter '" +
                                       std::string(key) + "' for site '" +
                                       rule.site + "'");
      }
    }
    if (IsKillSite(rule.site) != (rule.kind == FaultKind::kKill)) {
      return Status::InvalidArgument(
          rule.kind == FaultKind::kKill
              ? "fault spec: kind=kill is only valid at the .kill sites, "
                "not '" + rule.site + "'"
              : "fault spec: site '" + rule.site +
                    "' is a kill site and only accepts kind=kill");
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

StatusOr<FaultPlan> FaultPlan::FromEnv() {
  const char* spec = std::getenv(kEnvVar);
  FaultPlan plan;
  if (spec != nullptr && *spec != '\0') {
    RELFAB_ASSIGN_OR_RETURN(plan, Parse(spec));
  }
  if (const char* seed = std::getenv(kSeedEnvVar);
      seed != nullptr && *seed != '\0') {
    RELFAB_ASSIGN_OR_RETURN(plan.seed, ParseU64(seed, "seed"));
  }
  return plan;
}

const FaultRule* FaultPlan::Find(std::string_view site) const {
  for (const FaultRule& rule : rules) {
    if (rule.site == site) return &rule;
  }
  return nullptr;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed;
  for (const FaultRule& rule : rules) {
    out << ";" << rule.site << ":p=" << rule.probability
        << ",kind=" << FaultKindName(rule.kind)
        << ",cycles=" << rule.penalty_cycles;
  }
  return out.str();
}

}  // namespace relfab::faults
