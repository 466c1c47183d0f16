#ifndef RELFAB_SIM_MEMORY_SYSTEM_H_
#define RELFAB_SIM_MEMORY_SYSTEM_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/logging.h"
#include "faults/injector.h"
#include "obs/query_profile.h"
#include "obs/registry.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/params.h"
#include "sim/prefetcher.h"
#include "sim/stats.h"

namespace relfab::sim {

/// Trace-driven timing model of the platform's memory hierarchy.
///
/// The model keeps two clocks:
///  * `cpu_cycles` — latency visible to the core: cache hits, exposed miss
///    latency, explicit compute work, and pipeline stalls;
///  * `channel_busy_cycles` — DRAM channel occupancy: every line moved
///    from DRAM (demand or RM gather) charges a transfer slot.
/// Elapsed time for a run is max(cpu, channel): a perfectly prefetched
/// scan becomes bandwidth-bound, a pointer-chasing scan latency-bound.
///
/// Data itself lives in ordinary host memory; this class only assigns
/// *simulated* addresses (via Allocate) and accounts for the cost of
/// touching them. Addresses at or above kFabricBase model the Relational
/// Memory fill buffer: they are cacheable but are produced by the fabric,
/// so a demand miss on them costs a fabric read instead of a DRAM access
/// and consumes no DRAM channel slot (the gather that produced them
/// already did).
///
/// ## Fast path (see docs/performance.md)
///
/// The per-line AccessLine walk is the *reference* implementation. By
/// default a batched fast path replays common access shapes in closed
/// form — provably producing bit-identical clocks and MemStats:
///  * a *hot-line memo* replays repeated touches of the most recently
///    accessed line as L1 hits without walking the cache;
///  * a *cold watermark* per region (DRAM / fabric) proves lines never
///    inserted since the last flush miss both caches, skipping lookups;
///  * runs of cold lines covered by one trained prefetch stream are
///    charged with one multiply per clock plus bulk cache/DRAM updates.
/// Toggle with set_fast_path() or RELFAB_SIM_FAST_PATH=0; the contract
/// (enforced by tests/sim_equivalence_test.cc) is that both modes yield
/// identical ElapsedCycles() and stats() for every workload.
class MemorySystem {
 public:
  /// Simulated addresses >= this value belong to the RM fill buffer.
  static constexpr uint64_t kFabricBase = 1ull << 40;

  explicit MemorySystem(const SimParams& params = SimParams::ZynqA53Defaults())
      : params_(params),
        l1_(params.l1_sets(), params.l1_ways),
        l2_(params.l2_sets(), params.l2_ways),
        prefetcher_(params),
        dram_(params) {
    const char* env = std::getenv("RELFAB_SIM_FAST_PATH");
    fast_path_ = env == nullptr || env[0] == '\0' || env[0] != '0';
  }

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// Reserves `bytes` of simulated address space (64 B aligned).
  uint64_t Allocate(uint64_t bytes, MemClass mem_class = MemClass::kDram) {
    uint64_t* brk =
        mem_class == MemClass::kFabricBuffer ? &fabric_brk_ : &dram_brk_;
    const uint64_t addr = *brk;
    *brk += (bytes + kCacheLineBytes - 1) &
            ~static_cast<uint64_t>(kCacheLineBytes - 1);
    if (mem_class == MemClass::kDram) {
      RELFAB_CHECK(*brk < kFabricBase) << "simulated DRAM exhausted";
    }
    return addr;
  }

  /// Charges a demand read of [addr, addr+bytes). bytes must be > 0.
  void Read(uint64_t addr, uint64_t bytes) {
    if (faults_ == nullptr) {
      ReadImpl(addr, bytes);
      return;
    }
    // ECC events are sampled per DRAM line actually moved, so both
    // simulation modes (which touch identical line counts) consume the
    // fault stream identically.
    const uint64_t before = stats_.dram_lines_demand;
    ReadImpl(addr, bytes);
    EccTick(stats_.dram_lines_demand - before);
  }

  /// Arms correctable-DRAM-ECC injection ("dram.ecc" site): each event
  /// stalls the core for the rule's penalty cycles. ECC faults are
  /// always correctable (stall-only) — the kind parameter is ignored for
  /// this site. Pass nullptr (or a plan without "dram.ecc") to disarm.
  void set_fault_injector(faults::FaultInjector* injector) {
    ecc_site_ = injector == nullptr
                    ? faults::FaultInjector::kNoSite
                    : injector->Site("dram.ecc");
    if (ecc_site_ < 0) {
      faults_ = nullptr;
      return;
    }
    faults_ = injector;
    ecc_penalty_ = injector->rule(ecc_site_).penalty_cycles;
    ecc_countdown_ = injector->NextGap(ecc_site_) + 1;
  }

 private:
  void ReadImpl(uint64_t addr, uint64_t bytes) {
    const uint64_t first = addr >> kLineShift;
    const uint64_t last = (addr + bytes - 1) >> kLineShift;
    if (!fast_path_) {
      for (uint64_t line = first; line <= last; ++line) AccessLine(line);
      return;
    }
    const bool fabric = IsFabricLine(first);
    uint64_t& watermark = fabric ? fabric_watermark_ : dram_watermark_;
    // Lines are visited in increasing order and the watermark only moves
    // at the end of the call, so `first >= watermark` proves every line
    // of the range has never been inserted since the last flush.
    const bool all_cold = first >= watermark;
    uint64_t line = first;
    while (line <= last) {
      if (line == hot_line_) {
        // The previous access left this line present and MRU of its L1
        // set; replaying it as a hit while skipping the LRU touch is
        // exact (it already holds the newest stamp of its set, and only
        // intra-set stamp order is ever observable).
        cpu_cycles_ += params_.l1_hit_cycles;
        ++stats_.l1_hits;
        ++fastpath_memo_hits_;
        ++line;
        continue;
      }
      if (all_cold) {
        const uint64_t n = last - line + 1;
        if (fabric) {
          ColdFabricRun(line, n);
          break;
        }
        if (n >= kMinRunLines && prefetcher_.TryAdvanceRun(line, n)) {
          ColdCoveredRun(line, n);
          break;
        }
        AccessLineCold(line);
        ++line;
        continue;
      }
      AccessLine(line);
      ++line;
    }
    hot_line_ = last;
    if (last >= watermark) watermark = last + 1;
  }

 public:
  /// Charges a demand write (write-allocate, same path as Read; writeback
  /// traffic is not modelled).
  void Write(uint64_t addr, uint64_t bytes) { Read(addr, bytes); }

  /// Charges a read of [addr, addr+bytes) that the *caller* proves is
  /// L1-resident: every line of the range is present in L1 and is the
  /// most recently touched line of its cache set (e.g. the fields of a
  /// row whose lines a scan operator just materialized). Under that
  /// precondition this is exactly equivalent to Read() — each line is an
  /// L1 hit, and skipping the LRU touch of a line that already holds its
  /// set's newest stamp cannot change any future hit, eviction or
  /// prefetch decision. Validated per line in debug builds; with the
  /// fast path disabled this simply forwards to the reference Read().
  void ReadL1Resident(uint64_t addr, uint64_t bytes) {
    if (!fast_path_) {
      Read(addr, bytes);
      return;
    }
    const uint64_t first = addr >> kLineShift;
    const uint64_t last = (addr + bytes - 1) >> kLineShift;
    const uint64_t n = last - first + 1;
#ifndef NDEBUG
    for (uint64_t line = first; line <= last; ++line) {
      RELFAB_DCHECK(l1_.IsMruOfSet(line))
          << "ReadL1Resident contract violated for line " << line;
    }
#endif
    AddRepeated(&cpu_cycles_, params_.l1_hit_cycles, n);
    stats_.l1_hits += n;
    fastpath_memo_hits_ += n;
    hot_line_ = last;
  }

  /// Charges `n` single-line reads of lines the *caller* proves are
  /// L1-resident and MRU of their sets — the counted form of
  /// ReadL1Resident for call sites that batch many provable hits (e.g.
  /// the volcano engine's per-field touches of a row its scan just
  /// materialized). Mode-independent by construction: both paths charge
  /// through AddRepeated (bit-identical to the scalar replay) and skip
  /// the LRU touch, which is exact for a line already holding its set's
  /// newest stamp.
  ///
  /// Precondition, exactly: each of the `n` lines is in L1 and holds its
  /// set's newest stamp. Every line of one demand Read of at most
  /// SimParams::l1_mru_span_bytes() meets it until another line of its
  /// set is touched — the bound the volcano scan chunks its rows by.
  /// Pair with DebugCheckMruResident in debug builds to validate it.
  void ChargeMruHits(uint64_t n) {
    if (n == 0) return;
    AddRepeated(&cpu_cycles_, params_.l1_hit_cycles, n);
    stats_.l1_hits += n;
    fastpath_memo_hits_ += n;
  }

  /// Debug-build validator for ChargeMruHits / ReadL1Resident call
  /// sites: true iff every line of [addr, addr+bytes) is present in L1
  /// and is the most recently stamped line of its set.
  bool DebugCheckMruResident(uint64_t addr, uint64_t bytes) const {
    const uint64_t first = addr >> kLineShift;
    const uint64_t last = (addr + bytes - 1) >> kLineShift;
    for (uint64_t line = first; line <= last; ++line) {
      if (!l1_.IsMruOfSet(line)) return false;
    }
    return true;
  }

  /// Charges pure compute work on the core.
  void CpuWork(double cycles) { cpu_cycles_ += cycles; }

  /// Charges a pipeline stall (e.g. waiting for the RM fill buffer).
  void Stall(double cycles) { cpu_cycles_ += cycles; }

  /// RM gather path: the fabric fetches one source line from DRAM.
  /// Returns the raw bank latency; the caller overlaps latencies across
  /// banks (fabric_gather_parallelism) when aggregating production time.
  /// Charges channel bandwidth but does not touch the CPU caches — the
  /// gather bypasses the core, which is exactly the "no cache pollution"
  /// property of the paper.
  double GatherLine(uint64_t addr, bool* row_hit) {
    const double lat = dram_.Access(addr, row_hit);
    channel_busy_cycles_ += params_.line_transfer_cycles;
    ++stats_.dram_lines_gather;
    if (faults_ != nullptr) EccTick(1);
    return lat;
  }

  /// Bulk equivalent of `n` GatherLine calls for consecutive lines
  /// starting at `addr` (line aligned): identical channel charge, DRAM
  /// row-buffer state and gather counters, computed in closed form.
  /// Returns the number of DRAM row misses so the caller can charge the
  /// bank-overlapped miss latency (miss latency is a constant, so
  /// `misses * miss_cycles` replays the per-line sum exactly).
  uint64_t GatherRun(uint64_t addr, uint64_t n) {
    uint64_t misses = 0;
    dram_.AccessRun(addr, n, kCacheLineBytes, &misses);
    AddRepeated(&channel_busy_cycles_, params_.line_transfer_cycles, n);
    stats_.dram_lines_gather += n;
    ++fastpath_runs_;
    fastpath_lines_ += n;
    if (faults_ != nullptr) EccTick(n);
    return misses;
  }

  /// Bookkeeping hook for fill-buffer wrap-arounds (stats only; the
  /// stall itself is charged by the caller via Stall()).
  void NoteFabricRefill() { ++stats_.fabric_refills; }

  // --- timing readout ---
  double cpu_cycles() const { return cpu_cycles_; }
  double channel_busy_cycles() const { return channel_busy_cycles_; }

  /// Total simulated time so far: the core and the DRAM channel advance
  /// concurrently, so the run takes as long as the busier of the two.
  uint64_t ElapsedCycles() const {
    const double e =
        cpu_cycles_ > channel_busy_cycles_ ? cpu_cycles_ : channel_busy_cycles_;
    return static_cast<uint64_t>(e);
  }

  /// Zeroes both clocks and the event counters; keeps cache/DRAM/prefetch
  /// state (use between timed sections that share warmed state).
  void ResetTiming() {
    cpu_cycles_ = 0;
    channel_busy_cycles_ = 0;
    stats_ = MemStats{};
    dram_row_hit_base_ = dram_.row_hits();
    dram_row_miss_base_ = dram_.row_misses();
  }

  /// Cold-start: flushes caches, prefetch streams and row buffers, and
  /// zeroes all clocks/counters. DRAM allocations are preserved; the
  /// fabric fill-buffer break is rewound because fill-buffer space is
  /// ephemeral by nature (every chunk production allocates fresh
  /// addresses), which makes a cell's simulated cycles independent of
  /// which queries ran before it in the same process — a prerequisite
  /// for running sweep cells on worker threads in any order.
  void ResetState() {
    l1_.Flush();
    l2_.Flush();
    prefetcher_.Reset();
    dram_.Reset();
    ResetTiming();
    dram_row_hit_base_ = 0;
    dram_row_miss_base_ = 0;
    fabric_brk_ = kFabricBase;
    hot_line_ = kNoLine;
    dram_watermark_ = 0;
    fabric_watermark_ = kFabricBase >> kLineShift;
  }

  /// ResetState plus a rewind of the simulated DRAM allocator: the next
  /// Allocate returns exactly what it would on a freshly constructed
  /// system. For worker-private rigs that re-host a different table per
  /// task (the shard scheduler): with the allocator rewound, a task's
  /// addresses — and therefore its bank/set mappings and cycles — are a
  /// pure function of the task, independent of what the rig ran before.
  /// ResetState deliberately does NOT do this (benches rely on
  /// allocations surviving it); use this only when the rig's previous
  /// tables are dead.
  void ResetAddressSpace() {
    ResetState();
    dram_brk_ = 1ull << 20;
  }

  /// Selects the batched fast path (default, also controlled by the
  /// RELFAB_SIM_FAST_PATH environment variable) or the per-line
  /// reference path. Both produce bit-identical clocks and stats; the
  /// reference path exists as the oracle for equivalence tests.
  /// Enabling mid-run conservatively forfeits cold-region knowledge
  /// accumulated while the reference path ran (it does not maintain the
  /// watermarks), so freshly allocated space past the current breaks is
  /// the only region the fast path will treat as cold.
  void set_fast_path(bool enabled) {
    if (enabled && !fast_path_) {
      hot_line_ = kNoLine;
      dram_watermark_ = dram_brk_ >> kLineShift;
      fabric_watermark_ = fabric_brk_ >> kLineShift;
    }
    fast_path_ = enabled;
  }
  bool fast_path() const { return fast_path_; }

  /// Fast-path telemetry (not part of MemStats, which must stay
  /// bit-identical across modes): lines charged via closed-form runs /
  /// the hot-line memo, and the number of closed-form runs taken.
  uint64_t fastpath_lines() const { return fastpath_lines_; }
  uint64_t fastpath_runs() const { return fastpath_runs_; }
  uint64_t fastpath_memo_hits() const { return fastpath_memo_hits_; }

  /// Event counters since the last ResetTiming/ResetState.
  MemStats stats() const {
    MemStats s = stats_;
    s.dram_row_hits = dram_.row_hits() - dram_row_hit_base_;
    s.dram_row_misses = dram_.row_misses() - dram_row_miss_base_;
    return s;
  }

  /// One reading of the accumulating meters for per-operator attribution
  /// (obs::OpProfiler); cheaper than a full stats() snapshot.
  obs::MeterSample Sample() const {
    obs::MeterSample s;
    s.cpu_cycles = cpu_cycles_;
    s.channel_busy_cycles = channel_busy_cycles_;
    s.dram_lines_demand = stats_.dram_lines_demand;
    s.dram_lines_gather = stats_.dram_lines_gather;
    s.fabric_reads = stats_.fabric_reads;
    s.l1_misses = stats_.l1_misses;
    s.l2_misses = stats_.l2_misses;
    return s;
  }

  /// Publishes the memory hierarchy's counters into `registry` under
  /// "sim.*": MemStats events, both clocks, DRAM bank/row-buffer state
  /// and the prefetcher's stream-table statistics. This is the metrics
  /// spine of the observability layer — every component exports through a
  /// Registry so one snapshot describes a whole run.
  void ExportTo(obs::Registry* registry) const {
    const MemStats s = stats();
    registry->Set("sim.cpu_cycles", cpu_cycles_);
    registry->Set("sim.channel_busy_cycles", channel_busy_cycles_);
    registry->Set("sim.elapsed_cycles",
                  static_cast<double>(ElapsedCycles()));
    registry->counter("sim.l1.hits")->Set(s.l1_hits);
    registry->counter("sim.l1.misses")->Set(s.l1_misses);
    registry->counter("sim.l2.hits")->Set(s.l2_hits);
    registry->counter("sim.l2.misses")->Set(s.l2_misses);
    registry->Set("sim.l1.hit_rate", s.l1_hit_rate());
    registry->Set("sim.l2.hit_rate", s.l2_hit_rate());
    registry->counter("sim.prefetch.covered")->Set(s.prefetch_covered);
    registry->counter("sim.prefetch.uncovered")->Set(s.prefetch_uncovered);
    registry->Set("sim.prefetch.coverage", s.prefetch_coverage());
    registry->counter("sim.prefetch.stream_allocs")
        ->Set(prefetcher_.allocations());
    registry->counter("sim.prefetch.stream_steals")->Set(prefetcher_.steals());
    registry->counter("sim.dram.row_hits")->Set(s.dram_row_hits);
    registry->counter("sim.dram.row_misses")->Set(s.dram_row_misses);
    registry->Set("sim.dram.banks", dram_.banks());
    registry->counter("sim.dram.lines_demand")->Set(s.dram_lines_demand);
    registry->counter("sim.dram.lines_gather")->Set(s.dram_lines_gather);
    registry->counter("sim.dram.bytes_total")->Set(s.dram_bytes_total());
    registry->counter("sim.fabric.buffer_reads")->Set(s.fabric_reads);
    registry->counter("sim.fabric.refills")->Set(s.fabric_refills);
    registry->Set("sim.fastpath.enabled", fast_path_ ? 1.0 : 0.0);
    registry->counter("sim.fastpath.runs")->Set(fastpath_runs_);
    registry->counter("sim.fastpath.lines")->Set(fastpath_lines_);
    registry->counter("sim.fastpath.memo_hits")->Set(fastpath_memo_hits_);
  }

  const SimParams& params() const { return params_; }

  /// Adds `c` to `*acc` exactly `n` times, bit-identical to the scalar
  /// loop but in O(log n) work. The accumulator may carry full-mantissa
  /// cruft from earlier non-dyadic charges, so a plain `n * c` fused add
  /// could round differently from the sequential replay when a partial
  /// sum crosses a power-of-two boundary (the representable spacing
  /// doubles there). Instead: while the partial sums stay at or below
  /// the next power of two — where every one is an exact multiple of
  /// ulp(acc), hence exactly representable — a single fused `m * c`
  /// addition is bit-equal to `m` scalar additions; the at most one
  /// addition per binade that crosses the boundary is replayed
  /// individually so it rounds exactly as the reference loop does.
  /// Falls back to the scalar loop for charge constants that are not
  /// dyadic rationals with <= 12 fractional bits (every stock parameter
  /// is one) or for astronomically large accumulators. Public so the
  /// equivalence tests can exercise it directly.
  static void AddRepeated(double* acc, double c, uint64_t n) {
    if (n < 8) {  // the closed form's setup costs more than 8 adds
      for (uint64_t i = 0; i < n; ++i) *acc += c;
      return;
    }
    const double scaled = c * 4096.0;  // 2^12
    if (!(c > 0) || scaled != std::floor(scaled) || scaled >= 0x1p53) {
      for (uint64_t i = 0; i < n; ++i) *acc += c;
      return;
    }
    while (n > 0) {
      const double a = *acc;
      int exp = 0;
      std::frexp(a, &exp);
      if (exp > 41) {
        for (uint64_t i = 0; i < n; ++i) *acc += c;
        return;
      }
      // Smallest power of two strictly greater than `a` (for a == 2^k,
      // frexp yields f = 0.5, exp = k + 1, so bound = 2^(k+1)).
      const double bound = a == 0 ? 1.0 : std::ldexp(1.0, exp);
      uint64_t m = static_cast<uint64_t>((bound - a) / c);
      if (m == 0) {  // boundary crossing: replay the rounding exactly
        *acc = a + c;
        --n;
        continue;
      }
      if (m > n) m = n;
      *acc = a + static_cast<double>(m) * c;
      n -= m;
    }
  }

 private:
  static constexpr uint32_t kLineShift = 6;  // 64 B lines
  static_assert(kCacheLineBytes == 1u << kLineShift);
  static constexpr uint64_t kNoLine = ~0ull;

  /// Consumes `n` DRAM-line events from the ECC countdown; every expiry
  /// charges one correctable-ECC stall and redraws the geometric gap.
  /// O(1) amortized — the hot Read path pays one subtraction per call.
  void EccTick(uint64_t n) {
    if (n == 0) return;
    faults_->NoteChecks(ecc_site_, n);
    while (n >= ecc_countdown_) {
      n -= ecc_countdown_;
      cpu_cycles_ += ecc_penalty_;
      faults_->NoteInjected(ecc_site_);
      ecc_countdown_ = faults_->NextGap(ecc_site_) + 1;
    }
    ecc_countdown_ -= n;
  }

  /// Minimum cold-run length worth the closed-form setup (stream-table
  /// scan + per-set bulk inserts); below it per-line cold accesses win.
  static constexpr uint64_t kMinRunLines = 4;

  static bool IsFabricLine(uint64_t line) {
    return (line << kLineShift) >= kFabricBase;
  }

  /// Reference per-line walk — the oracle the fast path is tested
  /// against. Every closed-form charge above replays exactly the state
  /// transitions and clock/counter increments of this function.
  void AccessLine(uint64_t line) {
    if (l1_.Access(line)) {
      cpu_cycles_ += params_.l1_hit_cycles;
      ++stats_.l1_hits;
      return;
    }
    ++stats_.l1_misses;
    if (l2_.Access(line)) {
      cpu_cycles_ += params_.l2_hit_cycles;
      ++stats_.l2_hits;
      l1_.Insert(line);
      return;
    }
    ++stats_.l2_misses;
    if (IsFabricLine(line)) {
      cpu_cycles_ += params_.fabric_read_cycles;
      ++stats_.fabric_reads;
      l2_.Insert(line);
      l1_.Insert(line);
      return;
    }
    const bool covered = prefetcher_.OnDemandMiss(line);
    const double lat = dram_.Access(line << kLineShift);
    if (covered) {
      cpu_cycles_ += params_.prefetch_covered_cycles;
      ++stats_.prefetch_covered;
    } else {
      cpu_cycles_ += lat / params_.cpu_mlp;
      ++stats_.prefetch_uncovered;
    }
    channel_busy_cycles_ += params_.line_transfer_cycles;
    ++stats_.dram_lines_demand;
    l2_.Insert(line);
    l1_.Insert(line);
  }

  /// One provably cold line: the watermark proves it was never inserted
  /// since the last flush, and Access() has no side effects on a miss,
  /// so skipping both cache lookups is state-exact. The tail (counters,
  /// prefetcher, DRAM, inserts) is identical to AccessLine.
  void AccessLineCold(uint64_t line) {
    ++stats_.l1_misses;
    ++stats_.l2_misses;
    if (IsFabricLine(line)) {
      cpu_cycles_ += params_.fabric_read_cycles;
      ++stats_.fabric_reads;
      l2_.Insert(line);
      l1_.Insert(line);
      return;
    }
    const bool covered = prefetcher_.OnDemandMiss(line);
    const double lat = dram_.Access(line << kLineShift);
    if (covered) {
      cpu_cycles_ += params_.prefetch_covered_cycles;
      ++stats_.prefetch_covered;
    } else {
      cpu_cycles_ += lat / params_.cpu_mlp;
      ++stats_.prefetch_uncovered;
    }
    channel_busy_cycles_ += params_.line_transfer_cycles;
    ++stats_.dram_lines_demand;
    l2_.Insert(line);
    l1_.Insert(line);
  }

  /// Closed-form charge for `n` cold DRAM lines that
  /// StreamPrefetcher::TryAdvanceRun already proved (and accounted) to
  /// be covered by one trained stream. Exactness: every line of the run
  /// misses both caches (cold), reports covered (so the per-line DRAM
  /// latency is discarded and the charge is the constant
  /// prefetch_covered_cycles), and all charge constants are dyadic
  /// rationals, making `n * c` bit-equal to `n` repeated additions.
  /// Cache and DRAM state advance through their bulk replays.
  void ColdCoveredRun(uint64_t line, uint64_t n) {
    stats_.l1_misses += n;
    stats_.l2_misses += n;
    stats_.prefetch_covered += n;
    stats_.dram_lines_demand += n;
    AddRepeated(&cpu_cycles_, params_.prefetch_covered_cycles, n);
    AddRepeated(&channel_busy_cycles_, params_.line_transfer_cycles, n);
    dram_.AccessRun(line << kLineShift, n, kCacheLineBytes, nullptr);
    l2_.InsertRun(line, n);
    l1_.InsertRun(line, n);
    ++fastpath_runs_;
    fastpath_lines_ += n;
  }

  /// Closed-form charge for `n` cold fill-buffer lines: the fabric path
  /// touches neither the prefetcher, the DRAM model nor the channel, so
  /// a cold fabric run needs no stream proof at all.
  void ColdFabricRun(uint64_t line, uint64_t n) {
    stats_.l1_misses += n;
    stats_.l2_misses += n;
    stats_.fabric_reads += n;
    AddRepeated(&cpu_cycles_, params_.fabric_read_cycles, n);
    l2_.InsertRun(line, n);
    l1_.InsertRun(line, n);
    ++fastpath_runs_;
    fastpath_lines_ += n;
  }

  SimParams params_;
  CacheModel l1_;
  CacheModel l2_;
  StreamPrefetcher prefetcher_;
  DramModel dram_;
  MemStats stats_;
  double cpu_cycles_ = 0;
  double channel_busy_cycles_ = 0;
  uint64_t dram_brk_ = 1ull << 20;  // leave page zero unmapped
  uint64_t fabric_brk_ = kFabricBase;
  uint64_t dram_row_hit_base_ = 0;
  uint64_t dram_row_miss_base_ = 0;
  // --- fault injection (null = unarmed: the hot paths pay one branch) ---
  faults::FaultInjector* faults_ = nullptr;
  int ecc_site_ = -1;
  uint64_t ecc_countdown_ = ~0ull;
  double ecc_penalty_ = 0;
  // --- fast-path state (never observable through clocks or stats) ---
  bool fast_path_ = true;
  /// Most recently accessed line: present in L1 and MRU of its set.
  uint64_t hot_line_ = kNoLine;
  /// First line of each region never inserted since the last flush.
  uint64_t dram_watermark_ = 0;
  uint64_t fabric_watermark_ = kFabricBase >> kLineShift;
  uint64_t fastpath_lines_ = 0;
  uint64_t fastpath_runs_ = 0;
  uint64_t fastpath_memo_hits_ = 0;
};

/// Charges sequential demand reads while skipping the per-access cost for
/// bytes that stay within an already-touched cache line. Engines use this
/// so a tight value-by-value loop performs one simulated access per line,
/// not per value.
class SequentialReader {
 public:
  explicit SequentialReader(MemorySystem* memory)
      : memory_(memory) {}

  /// Charges the read of [addr, addr+bytes); bytes that fall on lines the
  /// stream already touched are free (the value sits in L1/a register —
  /// that cost belongs to the engine's per-value CPU constant).
  void Read(uint64_t addr, uint32_t bytes) {
    const uint64_t first = addr >> 6;
    const uint64_t last = (addr + bytes - 1) >> 6;
    uint64_t begin = first;
    if (last_line_ != kNoLine && first <= last_line_) begin = last_line_ + 1;
    if (begin > last) return;
    memory_->Read(begin << 6, ((last - begin) + 1) << 6);
    last_line_ = last;
  }

  /// Forgets the current line (e.g. when jumping to a new region).
  void Reset() { last_line_ = kNoLine; }

  /// Records that the stream position has been charged through `addr`'s
  /// line by an out-of-band bulk read (e.g. a whole-column hoist):
  /// subsequent Read calls at or below it charge nothing.
  void NoteConsumedThrough(uint64_t addr) { last_line_ = addr >> 6; }

 private:
  static constexpr uint64_t kNoLine = ~0ull;

  MemorySystem* memory_;
  uint64_t last_line_ = kNoLine;
};

}  // namespace relfab::sim

#endif  // RELFAB_SIM_MEMORY_SYSTEM_H_
