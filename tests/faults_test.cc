// relfab::faults unit tests: spec parsing, deterministic per-site
// streams, the geometric-gap sampler, the retry/backoff protocol, and
// the DRAM ECC countdown in MemorySystem (including fast-vs-reference
// mode identity of the injected-fault stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/health.h"
#include "faults/injector.h"
#include "faults/retry.h"
#include "obs/registry.h"
#include "sim/memory_system.h"

namespace relfab::faults {
namespace {

FaultPlan MustParse(std::string_view spec) {
  StatusOr<FaultPlan> plan = FaultPlan::Parse(spec);
  RELFAB_CHECK(plan.ok()) << plan.status().ToString();
  return *std::move(plan);
}

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlanTest, ParsesTheReadmeSpec) {
  const FaultPlan plan = MustParse(
      "rm.stall:p=0.01;dram.ecc:p=1e-6;ssd.read:p=0.001,kind=timeout");
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].site, "rm.stall");
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.01);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kStall);  // site default
  EXPECT_DOUBLE_EQ(plan.rules[0].penalty_cycles, 2000);
  EXPECT_EQ(plan.rules[1].site, "dram.ecc");
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 1e-6);
  EXPECT_EQ(plan.rules[2].kind, FaultKind::kTimeout);
  EXPECT_TRUE(plan.armed());
}

TEST(FaultPlanTest, ProbabilityDefaultsToAlwaysAndSeedEntryParses) {
  const FaultPlan plan = MustParse("seed=42;rm.gather:kind=corruption");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 1.0);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kCorruption);
  EXPECT_DOUBLE_EQ(plan.rules[0].penalty_cycles, 4000);  // site default
}

TEST(FaultPlanTest, EmptySpecIsUnarmed) {
  EXPECT_FALSE(MustParse("").armed());
  EXPECT_FALSE(MustParse("  ;  ;").armed());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "nosuch.site:p=0.5",          // unknown site
      "rm.stall:p=1.5",             // probability > 1
      "rm.stall:p=-0.1",            // probability < 0
      "rm.stall:p=nan",             // non-finite
      "rm.stall:kind=explosion",    // unknown kind
      "rm.stall:cycles=-5",         // negative penalty
      "rm.stall:p=0.5;rm.stall:p=0.1",  // duplicate site
      "rm.stall",                   // entry without params or '='
      "rm.stall:q=1",               // unknown parameter
      "rm.stall:p",                 // parameter without value
      "seed=notanumber",
  };
  for (const char* spec : bad) {
    StatusOr<FaultPlan> plan = FaultPlan::Parse(spec);
    EXPECT_FALSE(plan.ok()) << "accepted: " << spec;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  const FaultPlan plan =
      MustParse("seed=7;rm.gather:p=0.25,kind=timeout,cycles=123");
  const FaultPlan reparsed = MustParse(plan.ToString());
  EXPECT_EQ(reparsed.seed, plan.seed);
  ASSERT_EQ(reparsed.rules.size(), plan.rules.size());
  EXPECT_EQ(reparsed.rules[0].site, plan.rules[0].site);
  EXPECT_DOUBLE_EQ(reparsed.rules[0].probability,
                   plan.rules[0].probability);
  EXPECT_EQ(reparsed.rules[0].kind, plan.rules[0].kind);
  EXPECT_DOUBLE_EQ(reparsed.rules[0].penalty_cycles,
                   plan.rules[0].penalty_cycles);
}

TEST(FaultPlanTest, FromEnvReadsSpecAndSeedOverride) {
  ::setenv(FaultPlan::kEnvVar, "rm.stall:p=0.5", 1);
  ::setenv(FaultPlan::kSeedEnvVar, "99", 1);
  StatusOr<FaultPlan> plan = FaultPlan::FromEnv();
  ::unsetenv(FaultPlan::kEnvVar);
  ::unsetenv(FaultPlan::kSeedEnvVar);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 99u);
  ASSERT_EQ(plan->rules.size(), 1u);

  StatusOr<FaultPlan> unarmed = FaultPlan::FromEnv();
  ASSERT_TRUE(unarmed.ok());
  EXPECT_FALSE(unarmed->armed());
}

TEST(FaultPlanTest, KindToStatusCodeMapping) {
  EXPECT_EQ(FaultKindCode(FaultKind::kTimeout), StatusCode::kIoError);
  EXPECT_EQ(FaultKindCode(FaultKind::kCorruption), StatusCode::kCorruption);
  EXPECT_EQ(FaultKindCode(FaultKind::kUnavailable),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FaultKindCode(FaultKind::kConflict), StatusCode::kAborted);

  EXPECT_TRUE(IsFabricFault(Status(StatusCode::kIoError, "x")));
  EXPECT_TRUE(IsFabricFault(Status(StatusCode::kCorruption, "x")));
  EXPECT_TRUE(IsFabricFault(Status(StatusCode::kResourceExhausted, "x")));
  EXPECT_FALSE(IsFabricFault(Status(StatusCode::kAborted, "x")));
  EXPECT_FALSE(IsFabricFault(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsFabricFault(Status::Ok()));
}

// Every fault and death schedule is seeded from NameHash, so it must stay
// the published 64-bit FNV-1a: a changed hash would move every schedule
// while each run still agreed with itself.
TEST(FaultPlanTest, NameHashIsFnv1a64) {
  EXPECT_EQ(NameHash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(NameHash("a"), 0xaf63dc4c8601ec8cull);
}

// --------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, SiteResolvesOnlyArmedSites) {
  FaultInjector injector(MustParse("rm.stall:p=0.5"));
  EXPECT_GE(injector.Site("rm.stall"), 0);
  EXPECT_EQ(injector.Site("ssd.read"), FaultInjector::kNoSite);
  // Every entry point is a safe no-op on kNoSite.
  EXPECT_FALSE(injector.ShouldInject(FaultInjector::kNoSite));
  injector.NoteRetry(FaultInjector::kNoSite);
  injector.NoteChecks(FaultInjector::kNoSite, 5);
  EXPECT_EQ(injector.total_retries(), 0u);
}

TEST(FaultInjectorTest, StreamsAreOrderIndependentAcrossSites) {
  const FaultPlan plan = MustParse("rm.stall:p=0.3;ssd.read:p=0.3");
  FaultInjector solo(plan);
  FaultInjector interleaved(plan);
  const int a1 = solo.Site("rm.stall");
  const int a2 = interleaved.Site("rm.stall");
  const int b2 = interleaved.Site("ssd.read");
  for (int i = 0; i < 200; ++i) {
    const bool expect = solo.ShouldInject(a1);
    // Drawing ssd.read in between must not disturb rm.stall's stream.
    interleaved.ShouldInject(b2);
    EXPECT_EQ(interleaved.ShouldInject(a2), expect) << "draw " << i;
  }
}

TEST(FaultInjectorTest, ResetStreamsReplaysExactly) {
  FaultInjector injector(MustParse("rm.gather:p=0.4"));
  const int site = injector.Site("rm.gather");
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) first.push_back(injector.ShouldInject(site));
  injector.ResetStreams();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.ShouldInject(site), first[i]) << "draw " << i;
  }
  // Counters survive the reset (they describe the whole run).
  EXPECT_EQ(injector.checks(site), 200u);
}

TEST(FaultInjectorTest, SeedsProduceDifferentStreams) {
  FaultInjector a(MustParse("seed=1;rm.stall:p=0.5"));
  FaultInjector b(MustParse("seed=2;rm.stall:p=0.5"));
  const int sa = a.Site("rm.stall");
  const int sb = b.Site("rm.stall");
  int diff = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.ShouldInject(sa) != b.ShouldInject(sb)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(FaultInjectorTest, NextGapEdgeCases) {
  FaultInjector injector(MustParse("rm.stall:p=0;rm.gather:p=1"));
  EXPECT_GE(injector.NextGap(injector.Site("rm.stall")), uint64_t{1} << 61);
  EXPECT_EQ(injector.NextGap(injector.Site("rm.gather")), 0u);
  EXPECT_GE(injector.NextGap(FaultInjector::kNoSite), uint64_t{1} << 61);
}

TEST(FaultInjectorTest, GeometricGapMatchesBernoulliRate) {
  FaultInjector injector(MustParse("dram.ecc:p=0.02"));
  const int site = injector.Site("dram.ecc");
  // Mean gap of Geometric(p) is (1-p)/p = 49; a 4000-draw average lands
  // well within a loose band for any reasonable stream.
  double total = 0;
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    total += static_cast<double>(injector.NextGap(site));
  }
  const double mean = total / kDraws;
  EXPECT_GT(mean, 49.0 * 0.85);
  EXPECT_LT(mean, 49.0 * 1.15);
}

TEST(FaultInjectorTest, MakeErrorCarriesSiteAndKind) {
  FaultInjector injector(MustParse("ssd.read:p=1"));
  const Status st =
      injector.MakeError(injector.Site("ssd.read"), "page batch");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("ssd.read"), std::string::npos);
  EXPECT_NE(st.message().find("page batch"), std::string::npos);
}

TEST(FaultInjectorTest, ExportToPublishesCounters) {
  FaultInjector injector(MustParse("rm.gather:p=1"));
  const int site = injector.Site("rm.gather");
  injector.ShouldInject(site);
  injector.NoteRetry(site);
  injector.NoteFallback("hybrid.select");
  injector.NoteFallback("hybrid.select");

  obs::Registry registry;
  injector.ExportTo(&registry);
  EXPECT_EQ(registry.counter("faults.rm.gather.checks")->value(), 1u);
  EXPECT_EQ(registry.counter("faults.rm.gather.injected")->value(), 1u);
  EXPECT_EQ(registry.counter("faults.rm.gather.retries")->value(), 1u);
  EXPECT_EQ(registry.counter("faults.fallbacks.hybrid.select")->value(), 2u);
  EXPECT_EQ(registry.counter("faults.fallbacks.total")->value(), 2u);
}

// -------------------------------------------------------- InjectAndRetry

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithCap) {
  RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.BackoffFor(0), 2048);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(1), 4096);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(2), 8192);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(10), 65536);  // capped
}

TEST(InjectAndRetryTest, NullInjectorIsFree) {
  double charged = 0;
  const Status st =
      InjectAndRetry(nullptr, 0, RetryPolicy{},
                     [&charged](double c) { charged += c; }, "op");
  EXPECT_TRUE(st.ok());
  EXPECT_DOUBLE_EQ(charged, 0);
}

TEST(InjectAndRetryTest, StallChargesPenaltyAndSucceeds) {
  FaultInjector injector(MustParse("rm.stall:p=1,cycles=500"));
  const int site = injector.Site("rm.stall");
  double charged = 0;
  const Status st =
      InjectAndRetry(&injector, site, RetryPolicy{},
                     [&charged](double c) { charged += c; }, "op");
  EXPECT_TRUE(st.ok());
  EXPECT_DOUBLE_EQ(charged, 500);
  EXPECT_EQ(injector.retries(site), 0u);
}

TEST(InjectAndRetryTest, ConflictSurfacesWithoutRetry) {
  FaultInjector injector(MustParse("mvcc.commit:p=1,kind=conflict"));
  const int site = injector.Site("mvcc.commit");
  double charged = 0;
  const Status st =
      InjectAndRetry(&injector, site, RetryPolicy{},
                     [&charged](double c) { charged += c; }, "op");
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_EQ(injector.retries(site), 0u);
  EXPECT_EQ(injector.exhausted(site), 0u);
}

TEST(InjectAndRetryTest, PersistentTimeoutExhaustsAttempts) {
  FaultInjector injector(MustParse("rm.gather:p=1,cycles=100"));
  const int site = injector.Site("rm.gather");
  RetryPolicy policy;  // max_attempts = 4
  double charged = 0;
  const Status st =
      InjectAndRetry(&injector, site, policy,
                     [&charged](double c) { charged += c; }, "op");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(injector.retries(site), 3u);
  EXPECT_EQ(injector.exhausted(site), 1u);
  // 4 penalties + backoffs before retries 1..3.
  EXPECT_DOUBLE_EQ(charged, 4 * 100 + 2048 + 4096 + 8192);
}

TEST(InjectAndRetryTest, RetryClearsTransientFault) {
  // p = 0.5: with 64 attempts allowed the fault always clears for this
  // seed, exercising the success-after-retry path deterministically.
  FaultInjector injector(MustParse("rm.gather:p=0.5"));
  const int site = injector.Site("rm.gather");
  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.budget_cycles = 1e12;
  int successes = 0;
  for (int i = 0; i < 50; ++i) {
    const Status st = InjectAndRetry(&injector, site, policy,
                                     [](double) {}, "op");
    if (st.ok()) ++successes;
  }
  EXPECT_EQ(successes, 50);
  EXPECT_GT(injector.retries(site), 0u);
  EXPECT_EQ(injector.exhausted(site), 0u);
}

TEST(InjectAndRetryTest, BudgetExhaustionStopsRetries) {
  FaultInjector injector(MustParse("ssd.read:p=1,cycles=10"));
  const int site = injector.Site("ssd.read");
  RetryPolicy policy;
  policy.budget_cycles = 1000;  // below the first 2048-cycle backoff
  double charged = 0;
  const Status st =
      InjectAndRetry(&injector, site, policy,
                     [&charged](double c) { charged += c; }, "op");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(injector.retries(site), 0u);
  EXPECT_EQ(injector.exhausted(site), 1u);
  EXPECT_DOUBLE_EQ(charged, 10);  // one penalty, no backoff spent
}

// ------------------------------------------------- MemorySystem DRAM ECC

uint64_t ScanWorkload(sim::MemorySystem* memory) {
  // A strided scan big enough to stream through the caches twice.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < (1u << 20); addr += 256) {
      memory->Read(addr, 128);
    }
  }
  return memory->ElapsedCycles();
}

TEST(MemoryEccTest, ArmedZeroProbabilityIsFree) {
  sim::MemorySystem plain;
  const uint64_t baseline = ScanWorkload(&plain);

  FaultInjector injector(MustParse("dram.ecc:p=0"));
  sim::MemorySystem armed;
  armed.set_fault_injector(&injector);
  EXPECT_EQ(ScanWorkload(&armed), baseline);
  EXPECT_EQ(injector.total_injected(), 0u);
}

TEST(MemoryEccTest, EccEventsStallTheCoreDeterministically) {
  FaultInjector a(MustParse("dram.ecc:p=0.001,cycles=600"));
  sim::MemorySystem m1;
  m1.set_fault_injector(&a);
  const uint64_t c1 = ScanWorkload(&m1);
  EXPECT_GT(a.total_injected(), 0u);
  EXPECT_GT(a.checks(a.Site("dram.ecc")), 0u);

  // Same plan, fresh injector: bit-identical cycles and counts.
  FaultInjector b(MustParse("dram.ecc:p=0.001,cycles=600"));
  sim::MemorySystem m2;
  m2.set_fault_injector(&b);
  EXPECT_EQ(ScanWorkload(&m2), c1);
  EXPECT_EQ(b.total_injected(), a.total_injected());

  // And the fault stream costs cycles: the armed run is slower than an
  // unarmed one.
  sim::MemorySystem plain;
  EXPECT_GT(c1, ScanWorkload(&plain));
}

TEST(MemoryEccTest, FastAndReferenceModesSeeTheSameFaultStream) {
  FaultInjector fast_inj(MustParse("dram.ecc:p=0.002,cycles=600"));
  sim::MemorySystem fast;
  fast.set_fast_path(true);
  fast.set_fault_injector(&fast_inj);
  const uint64_t fast_cycles = ScanWorkload(&fast);

  FaultInjector ref_inj(MustParse("dram.ecc:p=0.002,cycles=600"));
  sim::MemorySystem ref;
  ref.set_fast_path(false);
  ref.set_fault_injector(&ref_inj);
  const uint64_t ref_cycles = ScanWorkload(&ref);

  // Both modes touch identical DRAM line counts (the PR-2 contract), so
  // they consume the ECC stream identically: same events, same cycles.
  EXPECT_EQ(fast_inj.total_injected(), ref_inj.total_injected());
  EXPECT_EQ(fast_inj.total_checks(), ref_inj.total_checks());
  EXPECT_EQ(fast_cycles, ref_cycles);
}

// ------------------------------------------------- kill grammar + health

TEST(FaultPlanTest, KillSitesParseWithKillKindDefault) {
  const FaultPlan plan = MustParse(
      "shard.kill:p=0.001;rm.kill:p=0.5,cycles=0;rs.kill:p=1;seed=7");
  ASSERT_EQ(plan.rules.size(), 3u);
  for (const FaultRule& rule : plan.rules) {
    EXPECT_EQ(rule.kind, FaultKind::kKill) << rule.site;
    EXPECT_TRUE(IsKillSite(rule.site)) << rule.site;
  }
  EXPECT_EQ(plan.seed, 7u);
  // Canonical form round-trips through Parse.
  const FaultPlan reparsed = MustParse(plan.ToString());
  EXPECT_EQ(reparsed.ToString(), plan.ToString());
}

TEST(FaultPlanTest, KillKindAndKillSitesAreInseparable) {
  // A transient kind on a kill site and the kill kind on a transient
  // site are both spec errors: the two machineries must not mix.
  const char* bad[] = {
      "shard.kill:p=0.5,kind=timeout",
      "rm.kill:kind=stall",
      "rm.stall:kind=kill",
      "ssd.read:p=0.1,kind=kill",
  };
  for (const char* spec : bad) {
    StatusOr<FaultPlan> plan = FaultPlan::Parse(spec);
    EXPECT_FALSE(plan.ok()) << "accepted: " << spec;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(FaultPlanTest, KillMapsToUnavailableAndUnavailableIsFabricFault) {
  EXPECT_EQ(FaultKindCode(FaultKind::kKill), StatusCode::kUnavailable);
  EXPECT_TRUE(IsFabricFault(Status::Unavailable("x")));
  // A blown deadline is a policy outcome, not a fabric failure: nothing
  // should try to "degrade" its way around it.
  EXPECT_FALSE(IsFabricFault(Status::DeadlineExceeded("x")));
}

TEST(HealthRegistryTest, DrawKillIsDeterministicPerComponentStream) {
  HealthRegistry a, b;
  a.ArmKills(MustParse("shard.kill:p=0.2;seed=42"));
  b.ArmKills(MustParse("shard.kill:p=0.2;seed=42"));
  // Interleaving draws across components differently must not change
  // each component's own death draw: streams are per (site, component).
  std::vector<uint64_t> deaths_a, deaths_b;
  for (int i = 0; i < 50; ++i) {
    if (a.alive("t.shard0.r0") && a.DrawKill("shard.kill", "t.shard0.r0", i))
      deaths_a.push_back(i);
    if (a.alive("t.shard1.r0") && a.DrawKill("shard.kill", "t.shard1.r0", i))
      deaths_a.push_back(1000 + i);
  }
  // b draws shard1 first in each round; same per-component schedules.
  for (int i = 0; i < 50; ++i) {
    if (b.alive("t.shard1.r0") && b.DrawKill("shard.kill", "t.shard1.r0", i))
      deaths_b.push_back(1000 + i);
    if (b.alive("t.shard0.r0") && b.DrawKill("shard.kill", "t.shard0.r0", i))
      deaths_b.push_back(i);
  }
  std::sort(deaths_a.begin(), deaths_a.end());
  std::sort(deaths_b.begin(), deaths_b.end());
  EXPECT_EQ(deaths_a, deaths_b);
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(HealthRegistryTest, ZeroProbabilityNeverKillsAndOneAlwaysDoes) {
  HealthRegistry never, always;
  never.ArmKills(MustParse("shard.kill:p=0;seed=1"));
  always.ArmKills(MustParse("shard.kill:p=1;seed=1"));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.DrawKill("shard.kill", "c", i));
  }
  EXPECT_TRUE(never.deaths().empty());
  EXPECT_TRUE(always.DrawKill("shard.kill", "c", 5));
  // DEAD is absorbing: further draws are no-ops, not double deaths.
  EXPECT_FALSE(always.DrawKill("shard.kill", "c", 6));
  ASSERT_EQ(always.deaths().size(), 1u);
  EXPECT_EQ(always.deaths()[0].component, "c");
  EXPECT_EQ(always.deaths()[0].site, "shard.kill");
  EXPECT_EQ(always.deaths()[0].cycles, 5u);
  EXPECT_FALSE(always.alive("c"));
}

TEST(HealthRegistryTest, UnarmedSiteNeverDraws) {
  HealthRegistry health;
  health.ArmKills(MustParse("rm.kill:p=1;seed=1"));
  EXPECT_FALSE(health.DrawKill("shard.kill", "c", 0));
  EXPECT_EQ(health.draws(), 0u);
  EXPECT_TRUE(health.DrawKill("rm.kill", "rm", 0));
}

TEST(HealthRegistryTest, CircuitBreakerDegradesAndRecovers) {
  HealthRegistry health;
  health.ReportFailure("rm", "timeout", 10);
  health.ReportFailure("rm", "timeout", 20);
  EXPECT_EQ(health.state("rm"), HealthState::kHealthy);
  health.ReportFailure("rm", "timeout", 30);  // third consecutive: trips
  EXPECT_EQ(health.state("rm"), HealthState::kDegraded);
  EXPECT_TRUE(health.alive("rm"));  // degraded is still alive

  health.ReportSuccess("rm");
  EXPECT_EQ(health.state("rm"), HealthState::kDegraded);
  health.ReportSuccess("rm");  // second consecutive: recovers
  EXPECT_EQ(health.state("rm"), HealthState::kHealthy);

  // A success in between resets the failure streak.
  health.ReportFailure("rm", "timeout", 40);
  health.ReportFailure("rm", "timeout", 50);
  health.ReportSuccess("rm");
  health.ReportFailure("rm", "timeout", 60);
  health.ReportFailure("rm", "timeout", 70);
  EXPECT_EQ(health.state("rm"), HealthState::kHealthy);
}

TEST(HealthRegistryTest, ExhaustionTripsImmediatelyAndDeadAbsorbs) {
  HealthRegistry health;
  health.ReportExhausted("rs", "retry budget spent", 100);
  EXPECT_EQ(health.state("rs"), HealthState::kDegraded);

  health.MarkDead("rs", "administrative", 200);
  EXPECT_EQ(health.state("rs"), HealthState::kDead);
  // DEAD is absorbing for every report kind.
  health.ReportSuccess("rs");
  health.ReportSuccess("rs");
  EXPECT_EQ(health.state("rs"), HealthState::kDead);
  ASSERT_EQ(health.deaths().size(), 1u);
  EXPECT_EQ(health.deaths()[0].site, "");  // administrative, not a draw
}

TEST(HealthRegistryTest, ToStringAndExportAreNameOrdered) {
  HealthRegistry health;
  health.MarkDead("zeta", "x", 1);
  health.ReportExhausted("alpha", "y", 2);
  EXPECT_EQ(health.ToString(), "alpha=degraded zeta=dead");

  obs::Registry registry;
  health.ExportTo(&registry);
  EXPECT_EQ(registry.gauge("health.dead")->value(), 1.0);
  EXPECT_EQ(registry.gauge("health.degraded")->value(), 1.0);
  EXPECT_EQ(registry.gauge("health.zeta.state")->value(), 2.0);
  EXPECT_EQ(registry.gauge("health.alpha.state")->value(), 1.0);
}

TEST(HealthRegistryTest, ArmKillsResetsToACleanSlate) {
  HealthRegistry health;
  health.ArmKills(MustParse("shard.kill:p=1;seed=9"));
  EXPECT_TRUE(health.DrawKill("shard.kill", "c", 3));
  EXPECT_EQ(health.deaths().size(), 1u);

  // Re-arming the same plan replays the same schedule from scratch.
  health.ArmKills(MustParse("shard.kill:p=1;seed=9"));
  EXPECT_TRUE(health.alive("c"));
  EXPECT_EQ(health.deaths().size(), 0u);
  EXPECT_EQ(health.draws(), 0u);
  EXPECT_TRUE(health.DrawKill("shard.kill", "c", 3));
}

}  // namespace
}  // namespace relfab::faults
