// dest: bench/bad_bench_scope.cc
// expect: naked-mutex, wall-clock
// Line rules scan bench/; program rules scan only src/. The naked
// mutex and the wall-clock read are reported, but the clock reading
// that reaches a `cycles` field is no taint-flow finding here: bench
// code runs in the host domain. The same body under src/ reports
// taint-flow as well (compare analyzer/bad_taint_clock.cc).
#include <chrono>
#include <mutex>

namespace relfab::bench {

struct CellTimer {
  std::mutex mu;
  unsigned long long cycles = 0;

  void Sample() {
    auto now = std::chrono::steady_clock::now();
    cycles += static_cast<unsigned long long>(
        now.time_since_epoch().count());
  }
};

}  // namespace relfab::bench
