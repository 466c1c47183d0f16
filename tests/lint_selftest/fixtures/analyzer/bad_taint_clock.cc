// dest: src/exec/taint_clock.cc
// expect: taint-flow, wall-clock
// Wall-clock time flowing into cycle accounting: the canonical
// determinism bug. Elapsed host time depends on machine load, so the
// simulated cycle count would differ run to run.
#include <chrono>

namespace relfab {

struct ScanStats {
  unsigned long long cycles = 0;
};

void TimeScan(ScanStats& stats) {
  auto t0 = std::chrono::steady_clock::now();
  auto t1 = std::chrono::steady_clock::now();
  unsigned long long elapsed =
      static_cast<unsigned long long>((t1 - t0).count());
  stats.cycles += elapsed;
}

}  // namespace relfab
