#ifndef RELFAB_FAULTS_FAULT_PLAN_H_
#define RELFAB_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

namespace relfab::faults {

/// What an injected fault does to the victim operation. The paper's
/// fabric is real hardware on the data path (FPGA transformer, DRAM
/// banks, computational SSD), so the taxonomy mirrors the physical
/// failure modes of each layer rather than generic software errors.
enum class FaultKind : uint8_t {
  /// Transient pipeline hiccup: the operation completes after paying the
  /// penalty cycles. Never surfaces as a Status error.
  kStall,
  /// The component did not answer within its deadline -> kIoError.
  kTimeout,
  /// The component answered with bad data that failed verification and
  /// must be refetched -> kCorruption.
  kCorruption,
  /// The component refused the request (busy, offline, out of internal
  /// resources) -> kResourceExhausted.
  kUnavailable,
  /// Transactional conflict (MVCC first-committer-wins loser) ->
  /// kAborted. Not retried by the machinery: the transaction itself must
  /// restart, so the error surfaces after a single injection.
  kConflict,
  /// Permanent component death -> kUnavailable. Once fired the component
  /// stays dead for the rest of the session (recorded in the
  /// HealthRegistry); retries never help, failover or degradation is the
  /// only recovery. Valid only at the ".kill" sites, which are drawn by
  /// the HealthRegistry rather than the per-operation FaultInjector.
  kKill,
};

std::string_view FaultKindName(FaultKind kind);

/// Status code an injected fault of `kind` surfaces as once retries are
/// exhausted (kStall never surfaces; it maps to kIoError if forced).
StatusCode FaultKindCode(FaultKind kind);

/// True for errors that mean "the fabric / accelerator path failed" and
/// the work can instead be completed on the plain host path (graceful
/// degradation). Programmer errors (kInvalidArgument...) and
/// transactional aborts (kAborted) are NOT fabric faults: the former are
/// bugs and the latter must be handled by restarting the transaction.
bool IsFabricFault(const Status& status);

/// One armed injection site.
struct FaultRule {
  std::string site;            // e.g. "rm.gather" (see KnownSites())
  double probability = 1.0;    // chance per injection opportunity
  FaultKind kind = FaultKind::kTimeout;
  double penalty_cycles = 0;   // simulated cycles charged per injection
};

/// A known injection site with its default fault shape. Sites are fixed
/// at compile time so a typo in a spec string is a parse error rather
/// than a silently dead rule.
struct SiteInfo {
  const char* name;
  FaultKind default_kind;
  double default_penalty_cycles;
  const char* description;
};

/// All injection sites wired into the stack.
const std::vector<SiteInfo>& KnownSites();
const SiteInfo* FindSite(std::string_view name);

/// True for the ".kill" sites (permanent component death). Kill rules
/// are executed by the HealthRegistry, not the per-operation injector.
bool IsKillSite(std::string_view name);

/// 64-bit FNV-1a of `name`. The injector's site streams and the health
/// registry's component streams are seeded from it, so a stream depends
/// on names only: adding a site to a plan, or arming in another order,
/// does not shift the draws any other stream sees.
uint64_t NameHash(std::string_view name);

/// Parsed, validated fault configuration. Grammar (whitespace around
/// tokens is ignored):
///
///   plan    := entry (';' entry)*
///   entry   := site ':' param (',' param)*   |   'seed=' uint64
///   param   := 'p=' float | 'kind=' kindname | 'cycles=' float
///
/// e.g.  RELFAB_FAULTS="rm.stall:p=0.01;dram.ecc:p=1e-6;ssd.read:p=0.001,kind=timeout"
///
/// `p` defaults to 1.0 (always fire — useful for deterministic tests),
/// `kind` and `cycles` default per site (KnownSites()). Unknown sites,
/// probabilities outside [0, 1], unknown kinds, negative or non-finite
/// cycles, and duplicate sites are kInvalidArgument. The `kill` kind is
/// tied to the ".kill" sites (shard.kill / rm.kill / rs.kill): a kill
/// kind on a transient site, or a transient kind on a kill site, is
/// also kInvalidArgument — permanent death and per-operation retry are
/// different machineries and must not be mixed silently.
struct FaultPlan {
  /// Seed for the per-site deterministic PRNG streams. Two runs with the
  /// same plan (spec + seed) inject exactly the same faults.
  uint64_t seed = 0xfab51c5u;
  std::vector<FaultRule> rules;

  static constexpr const char* kEnvVar = "RELFAB_FAULTS";
  static constexpr const char* kSeedEnvVar = "RELFAB_FAULTS_SEED";

  static StatusOr<FaultPlan> Parse(std::string_view spec);

  /// Builds the plan from $RELFAB_FAULTS (empty/unset -> unarmed plan)
  /// and $RELFAB_FAULTS_SEED (overrides any seed= entry in the spec).
  static StatusOr<FaultPlan> FromEnv();

  bool armed() const { return !rules.empty(); }
  const FaultRule* Find(std::string_view site) const;

  /// Canonical spec string (parseable by Parse).
  std::string ToString() const;
};

}  // namespace relfab::faults

#endif  // RELFAB_FAULTS_FAULT_PLAN_H_
