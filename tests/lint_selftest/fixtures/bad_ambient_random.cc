// dest: src/common/bad_ambient_random.cc
// expect: ambient-random
// Fixture: nondeterministic / non-portable randomness must be rejected.
#include <cstdlib>
#include <random>

namespace relfab {

// A prefixed char literal is no digit separator: reading it as one
// would swallow the rest of the file, and the draws below with it.
const char16_t kTag = u'r';

int AmbientDraw() {
  std::random_device rd;
  std::mt19937 gen(rd());
  return static_cast<int>(gen()) + rand();
}

}  // namespace relfab
