#ifndef RELFAB_BENCH_BENCH_UTIL_H_
#define RELFAB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"
#include "obs/report.h"

namespace relfab::bench {

/// True when the RELFAB_FULL environment variable asks for paper-scale
/// data sizes (default: scaled down ~16x so the whole suite runs in
/// minutes on a laptop).
inline bool FullScale() {
  const char* v = std::getenv("RELFAB_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Keeps `value` alive in the eyes of the optimizer (replacement for
/// benchmark::DoNotOptimize now that the harness is self-contained).
template <typename T>
inline void DoNotOptimize(T const& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile const T* sink = &value;
  (void)sink;
#endif
}

/// Collects (series, x-label) -> measurement and prints a paper-style
/// table after the sweep ran. Cell registration (which fixes row/column
/// order) happens single-threaded before the sweep; Add() is
/// mutex-guarded so SweepRunner workers can fill cells concurrently, and
/// the printed/reported order depends only on registration order — never
/// on worker scheduling.
class ResultTable {
 public:
  explicit ResultTable(std::string title) : title_(std::move(title)) {}

  /// Fixes the position of a (series, x) cell in the output order.
  /// Idempotent; called by SweepRunner::Register before workers start.
  void Reserve(const std::string& series, const std::string& x) {
    MutexLock lock(&mu_);
    if (std::find(x_order_.begin(), x_order_.end(), x) == x_order_.end()) {
      x_order_.push_back(x);
    }
    if (std::find(series_order_.begin(), series_order_.end(), series) ==
        series_order_.end()) {
      series_order_.push_back(series);
    }
  }

  void Add(const std::string& series, const std::string& x, uint64_t cycles) {
    Reserve(series, x);
    MutexLock lock(&mu_);
    cells_[series][x] = cycles;
  }

  uint64_t Get(const std::string& series, const std::string& x) const {
    MutexLock lock(&mu_);
    auto sit = cells_.find(series);
    RELFAB_CHECK(sit != cells_.end() && sit->second.count(x) > 0)
        << "ResultTable '" << title_ << "' has no cell (series='" << series
        << "', x='" << x << "')";
    return sit->second.at(x);
  }

  bool Has(const std::string& series, const std::string& x) const {
    MutexLock lock(&mu_);
    auto it = cells_.find(series);
    return it != cells_.end() && it->second.count(x) > 0;
  }

  /// Prints absolute simulated cycles per series.
  void PrintCycles(const char* x_name) const {
    const std::vector<std::string> series = series_order();
    const std::vector<std::string> xs = x_order();
    std::printf("\n=== %s ===\n%-28s", title_.c_str(), x_name);
    for (const std::string& s : series) {
      std::printf(" %14s", s.c_str());
    }
    std::printf("\n");
    for (const std::string& x : xs) {
      std::printf("%-28s", x.c_str());
      for (const std::string& s : series) {
        if (Has(s, x)) {
          std::printf(" %14llu",
                      static_cast<unsigned long long>(Get(s, x)));
        } else {
          std::printf(" %14s", "-");
        }
      }
      std::printf("\n");
    }
  }

  /// Prints series_cycles / base_cycles (the paper's "normalized
  /// execution time" view; base shows as 1.00).
  void PrintNormalized(const char* x_name, const std::string& base) const {
    const std::vector<std::string> series = series_order();
    const std::vector<std::string> xs = x_order();
    std::printf("\n=== %s — normalized to %s ===\n%-28s", title_.c_str(),
                base.c_str(), x_name);
    for (const std::string& s : series) {
      std::printf(" %14s", s.c_str());
    }
    std::printf("\n");
    for (const std::string& x : xs) {
      std::printf("%-28s", x.c_str());
      for (const std::string& s : series) {
        if (Has(s, x) && Has(base, x)) {
          std::printf(" %14.3f", static_cast<double>(Get(s, x)) /
                                     static_cast<double>(Get(base, x)));
        } else {
          std::printf(" %14s", "-");
        }
      }
      std::printf("\n");
    }
  }

  /// Prints each series normalized to `base_series` (the paper's
  /// "speedup vs X" view): base_cycles / series_cycles.
  void PrintSpeedupVs(const char* x_name, const std::string& base) const {
    const std::vector<std::string> series = series_order();
    const std::vector<std::string> xs = x_order();
    std::printf("\n=== %s — speedup vs %s ===\n%-28s", title_.c_str(),
                base.c_str(), x_name);
    for (const std::string& s : series) {
      if (s == base) continue;
      std::printf(" %14s", s.c_str());
    }
    std::printf("\n");
    for (const std::string& x : xs) {
      std::printf("%-28s", x.c_str());
      for (const std::string& s : series) {
        if (s == base) continue;
        if (Has(s, x) && Has(base, x)) {
          std::printf(" %14.2f", static_cast<double>(Get(base, x)) /
                                     static_cast<double>(Get(s, x)));
        } else {
          std::printf(" %14s", "-");
        }
      }
      std::printf("\n");
    }
  }

  /// Snapshots (by value: the orders are tiny and callers iterate them
  /// while other accessors re-acquire mu_).
  std::vector<std::string> series_order() const {
    MutexLock lock(&mu_);
    return series_order_;
  }
  std::vector<std::string> x_order() const {
    MutexLock lock(&mu_);
    return x_order_;
  }

 private:
  std::string title_;
  mutable Mutex mu_;
  std::vector<std::string> series_order_ RELFAB_GUARDED_BY(mu_);
  std::vector<std::string> x_order_ RELFAB_GUARDED_BY(mu_);
  std::map<std::string, std::map<std::string, uint64_t>> cells_
      RELFAB_GUARDED_BY(mu_);
};

/// Parsed harness command line. The sweep harness owns its (tiny) flag
/// surface now that google-benchmark is gone:
///   --threads N       worker threads (default: hardware concurrency)
///   --filter REGEX    run only cells whose name matches (partial match)
///   --list            print registered cell names and exit
///   --json PATH       write the machine-readable run report to PATH
struct BenchArgs {
  int threads = 0;  // 0: pick hardware concurrency at run time
  std::string filter;
  std::string json_path;
  bool list = false;
};

/// Extracts every `--flag V` / `--flag=V` from argv (the last one wins)
/// and returns V, or nullopt when the flag is absent. A trailing `--flag`
/// without a value exits 2.
inline std::optional<std::string> ConsumeValueFlag(int* argc, char** argv,
                                                   const char* flag) {
  std::optional<std::string> value;
  const size_t flag_len = std::strlen(flag);
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      value = argv[++i];
    } else if (std::strncmp(argv[i], flag, flag_len) == 0 &&
               argv[i][flag_len] == '=') {
      value = argv[i] + flag_len + 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

/// ConsumeValueFlag for a flag that names an output file; "" when absent.
/// A path starting with '-' exits 2: it is almost always a misplaced flag
/// (e.g. `--json --threads`), and silently creating a file literally
/// named "-foo" loses the output.
inline std::string ConsumePathFlag(int* argc, char** argv, const char* flag) {
  std::string path = ConsumeValueFlag(argc, argv, flag).value_or("");
  if (!path.empty() && path[0] == '-') {
    std::fprintf(stderr,
                 "%s path '%s' starts with '-': looks like a misplaced "
                 "flag, refusing to treat it as a file name\n",
                 flag, path.c_str());
    std::exit(2);
  }
  return path;
}

/// ConsumeValueFlag for a numeric flag: stores the value in `*out` when
/// the flag is present and leaves `*out` alone otherwise. A value that is
/// not entirely a number in [lo, hi] exits 2 naming the flag.
template <typename T>
void ConsumeNumberFlag(int* argc, char** argv, const char* flag, T* out,
                       std::type_identity_t<T> lo,
                       std::type_identity_t<T> hi =
                           std::numeric_limits<T>::max()) {
  const std::optional<std::string> text = ConsumeValueFlag(argc, argv, flag);
  if (!text) return;
  const char* end = text->data() + text->size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text->data(), end, value);
  // Written as !(in range) so that NaN, which fails both compares, is out.
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::ostringstream range;
    range << '[' << lo << ", " << hi << ']';
    std::fprintf(stderr, "%s: '%s' is not a number in %s\n", flag,
                 text->c_str(), range.str().c_str());
    std::exit(2);
  }
  *out = value;
}

/// Parses the full harness flag surface. Unknown flags and malformed
/// values exit 2, so typos fail loudly before any cell runs.
inline BenchArgs ParseBenchArgs(int* argc, char** argv) {
  BenchArgs args;
  args.json_path = ConsumePathFlag(argc, argv, "--json");
  ConsumeNumberFlag(argc, argv, "--threads", &args.threads, 1);
  args.filter = ConsumeValueFlag(argc, argv, "--filter").value_or("");
  try {
    // SweepRunner::Run compiles the filter again; this catches a bad
    // pattern while the flags are read.
    const std::regex probe(args.filter);
  } catch (const std::regex_error& e) {
    std::fprintf(stderr, "--filter: bad regex '%s': %s\n",
                 args.filter.c_str(), e.what());
    std::exit(2);
  }
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      args.list = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      std::exit(2);
    }
  }
  *argc = 1;
  return args;
}

namespace internal {
/// Worker slot of the thread executing the current sweep cell
/// (0 when outside a sweep, so single-threaded code paths — including
/// cell registration and everything before RunSweep — share slot 0).
inline thread_local int g_worker_slot = 0;
}  // namespace internal

/// Lazily builds one `T` per SweepRunner worker. Cells running on
/// different workers therefore never share simulation state — each
/// worker owns a private MemorySystem, tables and engines — which is
/// what makes the sweep embarrassingly parallel without any locking in
/// the simulation itself. Combined with MemorySystem::ResetState()'s
/// guarantee that a cell's cycles do not depend on what ran before it on
/// the same rig, every cell reports the same cycles at any thread count.
template <typename T>
class PerWorker {
 public:
  explicit PerWorker(std::function<std::unique_ptr<T>()> factory)
      : factory_(std::move(factory)) {}

  /// The calling worker's instance (built on first use).
  T& Get() {
    const int slot = internal::g_worker_slot;
    MutexLock lock(&mu_);
    if (static_cast<size_t>(slot) >= instances_.size()) {
      instances_.resize(slot + 1);
    }
    if (!instances_[slot]) instances_[slot] = factory_();
    return *instances_[slot];
  }

  /// The instance of an explicit worker slot, or nullptr if that worker
  /// never built one. Used after the sweep to snapshot metrics from the
  /// rig that ran a particular cell.
  T* ForWorker(int slot) {
    MutexLock lock(&mu_);
    if (slot < 0 || static_cast<size_t>(slot) >= instances_.size()) {
      return nullptr;
    }
    return instances_[slot].get();
  }

 private:
  std::function<std::unique_ptr<T>()> factory_;
  Mutex mu_;
  /// The unique_ptr slots are guarded; the built T instances themselves
  /// are worker-private by construction (one slot per worker).
  std::vector<std::unique_ptr<T>> instances_ RELFAB_GUARDED_BY(mu_);
};

/// Deterministic parallel sweep executor. Cells are registered
/// single-threaded (fixing their ResultTable position), then executed by
/// a pool of workers pulling from an atomic queue in registration order.
/// Because every cell simulates on worker-private state (see PerWorker)
/// and MemorySystem cells are order-independent after ResetState(), the
/// simulated cycles of every cell are bit-identical at any --threads
/// value.
class SweepRunner {
 public:
  struct CellSpec {
    std::string name;
    ResultTable* table;
    std::string series;
    std::string x;
    std::function<uint64_t()> run;
  };

  void Register(std::string name, ResultTable* table, std::string series,
                std::string x, std::function<uint64_t()> run) {
    table->Reserve(series, x);
    cells_.push_back(CellSpec{std::move(name), table, std::move(series),
                              std::move(x), std::move(run)});
  }

  /// Runs all registered cells honoring `args` (filter/threads/list).
  /// Returns the worker slot that executed the last registered cell (the
  /// traditional source of the post-run metrics snapshot), or -1 if no
  /// cell ran.
  int Run(const BenchArgs& args) {
    std::vector<size_t> selected;
    if (args.filter.empty()) {
      for (size_t i = 0; i < cells_.size(); ++i) selected.push_back(i);
    } else {
      const std::regex re(args.filter);
      for (size_t i = 0; i < cells_.size(); ++i) {
        if (std::regex_search(cells_[i].name, re)) selected.push_back(i);
      }
    }
    if (args.list) {
      for (size_t i : selected) std::printf("%s\n", cells_[i].name.c_str());
      return -1;
    }
    if (selected.empty()) {
      std::fprintf(stderr, "no cells match filter '%s'\n",
                   args.filter.c_str());
      return -1;
    }
    int threads = args.threads;
    if (threads < 1) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads < 1) threads = 1;
    }
    if (static_cast<size_t>(threads) > selected.size()) {
      threads = static_cast<int>(selected.size());
    }

    {
      MutexLock lock(&mu_);
      last_cell_worker_ = -1;
    }
    const size_t last_index = selected.back();
    std::atomic<size_t> next{0};
    auto worker = [&](int slot) {
      internal::g_worker_slot = slot;
      for (;;) {
        const size_t pick = next.fetch_add(1);
        if (pick >= selected.size()) break;
        CellSpec& cell = cells_[selected[pick]];
        cell.table->Add(cell.series, cell.x, cell.run());
        if (selected[pick] == last_index) {
          MutexLock lock(&mu_);
          last_cell_worker_ = slot;
        }
      }
      internal::g_worker_slot = 0;
    };
    if (threads == 1) {
      // Run on the caller's thread: benches stay trivially debuggable
      // under --threads 1 and single-threaded sanitizer runs see no
      // thread machinery at all.
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
      for (std::thread& t : pool) t.join();
    }
    MutexLock lock(&mu_);
    return last_cell_worker_;
  }

  size_t num_registered() const { return cells_.size(); }

 private:
  std::vector<CellSpec> cells_;
  Mutex mu_;
  int last_cell_worker_ RELFAB_GUARDED_BY(mu_) = -1;
};

/// Process-wide runner used by RegisterSimBenchmark / RunSweep so bench
/// mains keep the one-liner registration style.
inline SweepRunner& Runner() {
  static SweepRunner runner;
  return runner;
}

/// Registers one deterministic simulation point: the lambda runs the
/// simulated workload once and returns simulated cycles, which become
/// the table cell.
inline void RegisterSimBenchmark(const std::string& name, ResultTable* table,
                                 const std::string& series,
                                 const std::string& x,
                                 std::function<uint64_t()> run) {
  Runner().Register(name, table, series, x, std::move(run));
}

/// Executes every registered benchmark cell. Returns the worker slot of
/// the last registered cell (for post-run metrics snapshots via
/// PerWorker::ForWorker), or -1 when nothing ran (e.g. --list).
inline int RunSweep(const BenchArgs& args) { return Runner().Run(args); }

/// Emits the machine-readable run report (one JSON doc: config + every
/// (series, x) cell + a metrics-registry snapshot) when `path` is
/// non-empty. `metrics` may be null when the bench has no registry.
/// Every report records the sweep's thread count and fast-path mode so a
/// result can always be traced back to how it was produced.
inline void MaybeWriteReport(
    const std::string& path, const std::string& bench_name,
    const ResultTable& table,
    const std::map<std::string, std::string>& config,
    const obs::Registry* metrics) {
  if (path.empty()) return;
  obs::RunReport report(bench_name);
  for (const auto& [key, value] : config) report.SetConfig(key, value);
  for (const std::string& series : table.series_order()) {
    for (const std::string& x : table.x_order()) {
      if (table.Has(series, x)) {
        report.AddResult(series, x, table.Get(series, x));
      }
    }
  }
  if (metrics != nullptr) report.SetMetrics(*metrics);
  const Status status = report.WriteTo(path);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  std::printf("\nwrote run report to %s\n", path.c_str());
}

/// Standard config entries every bench report should carry.
inline void AddStandardConfig(std::map<std::string, std::string>* config,
                              const BenchArgs& args) {
  (*config)["threads"] = std::to_string(
      args.threads < 1
          ? static_cast<int>(std::thread::hardware_concurrency())
          : args.threads);
  const char* fp = std::getenv("RELFAB_SIM_FAST_PATH");
  (*config)["fast_path"] =
      (fp == nullptr || fp[0] == '\0' || fp[0] != '0') ? "1" : "0";
  (*config)["full_scale"] = FullScale() ? "1" : "0";
}

}  // namespace relfab::bench

#endif  // RELFAB_BENCH_BENCH_UTIL_H_
