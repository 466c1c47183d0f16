// dest: src/sim/good_allowlisted.cc
// expect:
// Fixture: a violation carrying a proper inline allow marker (rule +
// reason) is clean; string/comment mentions of hazards never fire,
// in block comments and raw strings too.
#include <chrono>

namespace relfab::sim {

// Talking about std::random_device in a comment is fine.
const char* kDoc = "uses std::chrono::system_clock for host logs only";
/* A block comment may name std::mutex
   and rand() on any of its lines. */
const char* kRaw = R"(seeded by std::mt19937
   and timed by clock())";

double HostSeconds() {
  // relfab-lint: allow(wall-clock) host-side log timestamp; never enters the cycle domain
  auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<double>(t.count()) * 1e-9;
}

}  // namespace relfab::sim
