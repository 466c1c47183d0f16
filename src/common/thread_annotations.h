#ifndef RELFAB_COMMON_THREAD_ANNOTATIONS_H_
#define RELFAB_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>

/// Clang thread-safety annotations (a thin RELFAB_-prefixed spelling of
/// the attributes behind -Wthread-safety), plus the annotated Mutex /
/// MutexLock pair the rest of the repo must use instead of naked
/// std::mutex / std::lock_guard (enforced by tools/relfab_analyzer).
///
/// Under clang the annotations turn lock discipline into compile errors:
/// every member declared RELFAB_GUARDED_BY(mu) may only be touched while
/// `mu` is held, and the CI static-analysis job builds with
/// -Wthread-safety -Werror. Under gcc (the local toolchain) they expand
/// to nothing and the classes degrade to zero-cost wrappers.

#if defined(__clang__) && defined(__has_attribute)
#define RELFAB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define RELFAB_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a type as a lockable capability ("mutex").
#define RELFAB_CAPABILITY(x) RELFAB_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability in its constructor
/// and releases it in its destructor.
#define RELFAB_SCOPED_CAPABILITY RELFAB_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated member may only be read or written while `x` is held.
#define RELFAB_GUARDED_BY(x) RELFAB_THREAD_ANNOTATION_(guarded_by(x))

/// The annotated pointer's pointee is protected by `x` (the pointer
/// itself is not).
#define RELFAB_PT_GUARDED_BY(x) RELFAB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The function may only be called while the listed capabilities are
/// held (and does not acquire them itself).
#define RELFAB_REQUIRES(...) \
  RELFAB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function may only be called while the listed capabilities are
/// NOT held (it acquires them itself; prevents self-deadlock).
#define RELFAB_EXCLUDES(...) \
  RELFAB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The function acquires the listed capabilities and holds them on
/// return.
#define RELFAB_ACQUIRE(...) \
  RELFAB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities.
#define RELFAB_RELEASE(...) \
  RELFAB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define RELFAB_RETURN_CAPABILITY(x) \
  RELFAB_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function body is not checked. Every use needs an
/// adjacent comment explaining why the analysis cannot see the
/// invariant (same policy as the lint allowlist).
#define RELFAB_NO_THREAD_SAFETY_ANALYSIS \
  RELFAB_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace relfab {

/// std::mutex wearing the capability attribute so clang can check lock
/// discipline. Same cost and semantics as std::mutex; the extra methods
/// exist only to carry annotations.
class RELFAB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RELFAB_ACQUIRE() { mu_.lock(); }
  void Unlock() RELFAB_RELEASE() { mu_.unlock(); }

  /// For the rare call site that must interoperate with std APIs
  /// (condition variables); using it bypasses the analysis.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, replacing std::lock_guard. Construction
/// acquires, destruction releases; clang tracks the held capability for
/// the scope.
class RELFAB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RELFAB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELFAB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace relfab

#endif  // RELFAB_COMMON_THREAD_ANNOTATIONS_H_
