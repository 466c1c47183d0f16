// The repository benchmark: one process runs one workload for a fixed
// measured time and prints every metric by name and unit.
//
//   perfbench --workload <olap_tpch|oltp_htap|shard_fanout> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <csv path>]
//
// Set-up (data, rigs, warm-up) runs several times before the clock and
// its median CPU time is setup_s; reference answers are computed after
// it, still before the clock, and reported apart. The timed phase is a closed loop with one client that measures
// each op's process CPU time (all threads) and wall time, and checks
// each op's output outside the timed region. With --trace 1 a second,
// traced run of the same seed and the same number of ops follows on a
// fresh set-up: it must reproduce every answer, simulated cycle count
// and query-log record, and it yields the per-layer metrics.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). The line before it, "DET {...}", holds
// the metrics that must repeat exactly for a seed. Exit code 0 only when
// every check passed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/random.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "olap_tpch") return MakeOlapTpch(seed);
  if (name == "oltp_htap") return MakeOltpHtap(seed);
  if (name == "shard_fanout") return MakeShardFanout(seed);
  return nullptr;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Per-op CPU samples: every op while the buffer has room, then a
/// uniform sample of the run (reservoir sampling with a fixed seed), so
/// memory stays fixed on runs of a million short ops. Random rather than
/// every k-th op, so periodic ops cannot alias with the sampling.
class Samples {
 public:
  Samples() : rng_(0x5EEDu) { values_.reserve(kCapacity); }
  void Add(double v) {
    if (values_.size() < kCapacity) {
      values_.push_back(v);
    } else if (const uint64_t j = rng_.Uniform(seen_ + 1); j < kCapacity) {
      values_[j] = v;
    }
    ++seen_;
  }
  const std::vector<double>& values() const { return values_; }

 private:
  static constexpr size_t kCapacity = size_t{1} << 17;
  std::vector<double> values_;
  uint64_t seen_ = 0;
  relfab::Random rng_;
};

/// Outcome of one pass over the op stream.
struct Pass {
  static constexpr uint64_t kBlock = 256;  // ops per fingerprint

  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t failed_guarded = 0;
  int64_t cpu_ns = 0;
  int64_t wall_ns = 0;
  Samples op_cpu_us;
  std::vector<double> sim_cycles;      // the guarded prefix
  std::vector<uint64_t> fingerprints;  // one per block of ops
  std::vector<double> setup_s;         // set-ups done between ops
};

/// Runs ops until `budget_ns` of measured wall time and at least the
/// guarded prefix have passed, or exactly `fixed_ops` ops when nonzero.
Pass RunPass(Workload* w, int64_t budget_ns, uint64_t fixed_ops,
             SpanLog* spans) {
  Pass p;
  const uint64_t guarded = w->guarded_ops();
  for (uint64_t i = 0;; ++i) {
    if (fixed_ops > 0 ? i >= fixed_ops
                      : p.wall_ns >= budget_ns && i >= guarded) {
      break;
    }
    const int64_t setup_ns = w->Prepare(i);
    if (setup_ns > 0) {
      p.setup_s.push_back(static_cast<double>(setup_ns) * 1e-9);
    }
    const int64_t c0 = CpuNs();
    const int64_t w0 = WallNs();
    if (spans != nullptr) {
      ScopedSpan root(spans, "op", i);
      w->Run(i, spans);
    } else {
      w->Run(i, nullptr);
    }
    const int64_t w1 = WallNs();
    const int64_t c1 = CpuNs();
    p.cpu_ns += c1 - c0;
    p.wall_ns += w1 - w0;
    p.op_cpu_us.Add(static_cast<double>(c1 - c0) * 1e-3);
    uint64_t cycles = 0, fp = 0;
    if (!w->Check(i, &cycles, &fp)) {
      ++p.failed;
      if (i < guarded) ++p.failed_guarded;
    }
    if (i < guarded) p.sim_cycles.push_back(static_cast<double>(cycles));
    if (i % Pass::kBlock == 0) p.fingerprints.push_back(0);
    p.fingerprints.back() =
        Hasher().U64(p.fingerprints.back()).U64(fp).value();
    ++p.ops;
  }
  if (!w->Finish()) ++p.failed;
  return p;
}

/// Metrics that must repeat exactly for a seed.
Metrics Deterministic(const Workload& w, const Pass& p) {
  Metrics m = {
      {"sim_p50_cycles", Quantile(p.sim_cycles, 0.50), "cycles"},
      {"sim_p99_cycles", Quantile(p.sim_cycles, 0.99), "cycles"},
      {"fail_frac",
       static_cast<double>(p.failed_guarded) /
           static_cast<double>(w.guarded_ops()),
       "ratio"},
  };
  w.counters().Deterministic(&m);
  return m;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void PrintMetrics(const char* title, const Metrics& m) {
  std::printf("# %s\n", title);
  for (const Metric& x : m) {
    std::printf("  %-34s %18.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

std::string Json(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m[i].value);
    if (i > 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m[i].unit + "\"}";
  }
  return out + "}";
}

/// Self time and calls summed over the spans named `names`.
SpanLog::SelfTime Self(const SpanLog& spans,
                       std::initializer_list<std::string_view> names) {
  SpanLog::SelfTime sum{nullptr};
  for (const SpanLog::SelfTime& t : spans.self_times()) {
    for (std::string_view n : names) {
      if (n == t.name) {
        sum.ns += t.ns;
        sum.calls += t.calls;
      }
    }
  }
  return sum;
}

/// Mean self time per call in microseconds.
double MeanUs(const SpanLog::SelfTime& t) {
  return t.calls > 0 ? t.ns / static_cast<double>(t.calls) * 1e-3 : 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <olap_tpch|oltp_htap|"
                 "shard_fanout> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <csv path>]\n");
    return 2;
  }
  if (Make(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // --- set-up, before the clock ---
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();  // the previous set-up's memory goes first
    w = Make(args.workload, args.seed);
    const int64_t c0 = CpuNs();
    w->Setup();
    setup_s.push_back(static_cast<double>(CpuNs() - c0) * 1e-9);
  }
  int64_t c0 = CpuNs();
  w->ComputeReferences();
  const double reference_s = static_cast<double>(CpuNs() - c0) * 1e-9;

  // --- timed phase ---
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  Pass run = RunPass(w.get(), budget_ns, 0, nullptr);
  const double peak_rss_mb = PeakRssMb();
  setup_s.insert(setup_s.end(), run.setup_s.begin(), run.setup_s.end());
  const Metrics det = Deterministic(*w, run);
  const double ops = static_cast<double>(run.ops);
  const double ops_per_cpu_s = ops / (static_cast<double>(run.cpu_ns) * 1e-9);
  const Metrics end_to_end = {
      {"ops_per_cpu_s", ops_per_cpu_s, "1/s"},
      {"ops_per_wall_s", ops / (static_cast<double>(run.wall_ns) * 1e-9),
       "1/s"},
      {"op_p50_cpu_us", Quantile(run.op_cpu_us.values(), 0.50), "us"},
      {"op_p99_cpu_us", Quantile(run.op_cpu_us.values(), 0.99), "us"},
      det[0],
      det[1],
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::printf("workload %s seed %llu: %llu ops in %.3f s cpu, %.3f s wall "
              "(%zu set-ups, references %.3f s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(run.ops),
              static_cast<double>(run.cpu_ns) * 1e-9,
              static_cast<double>(run.wall_ns) * 1e-9, setup_s.size(),
              reference_s);
  PrintMetrics("end to end", end_to_end);
  PrintMetrics("deterministic (guarded prefix)", det);

  uint64_t failed = run.failed;
  Metrics final_metrics = end_to_end;
  if (args.trace) {
    w.reset();
    w = Make(args.workload, args.seed);
    w->Setup();
    w->ComputeReferences();
    SpanLog spans(w->guarded_ops());
    const Pass traced = RunPass(w.get(), 0, run.ops, &spans);
    const Metrics traced_det = Deterministic(*w, traced);
    bool same = traced.failed == run.failed;
    for (size_t b = 0; b < run.fingerprints.size(); ++b) {
      if (traced.fingerprints[b] != run.fingerprints[b]) {
        std::fprintf(stderr,
                     "traced ops %llu..%llu differ from the untraced run\n",
                     static_cast<unsigned long long>(b * Pass::kBlock),
                     static_cast<unsigned long long>((b + 1) * Pass::kBlock -
                                                     1));
        same = false;
        break;
      }
    }
    for (size_t i = 0; i < det.size(); ++i) {
      if (det[i].value != traced_det[i].value) {
        std::fprintf(stderr, "traced run changed %s: %.17g vs %.17g\n",
                     det[i].name.c_str(), det[i].value, traced_det[i].value);
        same = false;
      }
    }
    if (!same) ++failed;
    const LayerCounters& c = w->counters();
    const SpanLog::SelfTime execute = Self(
        spans, {"exec.execute", "exec.local_fanout", "exec.cluster_fanout"});
    final_metrics = {
        {"query.parse_us", MeanUs(Self(spans, {"query.parse"})), "us"},
        {"query.plan_us", MeanUs(Self(spans, {"query.plan"})), "us"},
        {"exec.execute_us", MeanUs(execute), "us"},
        {"exec.local_fanout_us", MeanUs(Self(spans, {"exec.local_fanout"})),
         "us"},
        {"exec.cluster_fanout_us",
         MeanUs(Self(spans, {"exec.cluster_fanout"})), "us"},
        {"sim.lines_per_cpu_s",
         execute.ns > 0 ? static_cast<double>(c.sim_lines) / (execute.ns * 1e-9)
                        : 0.0,
         "1/s"},
        {"sim.fastpath_line_frac",
         c.sim_lines > 0 ? static_cast<double>(c.fastpath_lines) /
                               static_cast<double>(c.sim_lines)
                         : 0.0,
         "ratio"},
        {"relmem.configure_us", MeanUs(Self(spans, {"relmem.configure"})),
         "us"},
        {"relmem.drain_us", MeanUs(Self(spans, {"relmem.drain"})), "us"},
        {"mvcc.txn_us", MeanUs(Self(spans, {"mvcc.txn"})), "us"},
        {"mvcc.commit_us", MeanUs(Self(spans, {"mvcc.commit"})), "us"},
        {"obs.epilogue_us", MeanUs(Self(spans, {"obs.epilogue"})), "us"},
        {"trace.overhead_frac",
         1.0 - (ops / (static_cast<double>(traced.cpu_ns) * 1e-9)) /
                   ops_per_cpu_s,
         "ratio"},
    };
    for (const Metric& m : det) {
      if (m.name.find('.') != std::string::npos) final_metrics.push_back(m);
    }
    PrintMetrics("per layer (traced run)", final_metrics);
    if (!args.spans_path.empty() && !spans.WriteCsv(args.spans_path)) {
      std::fprintf(stderr, "could not write %s\n", args.spans_path.c_str());
    }
  }

  std::printf("  %-34s %18.6f %s\n", "fail_frac",
              static_cast<double>(failed) / ops, "ratio");
  std::printf("DET %s\n", Json(det).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.ops),
              static_cast<unsigned long long>(failed),
              Json(final_metrics).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
