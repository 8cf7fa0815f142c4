// Clang thread-safety annotations and the annotated lock types that make
// them checkable.
//
// The SOC_* capability macros map to Clang's -Wthread-safety attributes
// (guarded_by, acquire_capability, ...) and expand to nothing on every
// other compiler, so annotating a member costs nothing on GCC and turns
// into a compile-time proof obligation under
// `cmake -DSOC_WERROR_THREAD_SAFETY=ON` with Clang.
//
// libstdc++'s std::mutex/std::lock_guard carry no capability attributes,
// so Clang cannot see them acquire or release anything; soc::Mutex and
// soc::MutexLock are the thin annotated equivalents every lock-guarded
// member in this tree must use.  tools/soclint's shared-mutable-state
// pass enforces the companion convention: every synchronization
// primitive or shared-mutable declaration carries a `// SOC_SHARED(<guard>)`
// comment naming the discipline that makes it safe.
#pragma once

#include <mutex>

#if defined(__clang__)
#define SOC_TS_ATTR(x) __attribute__((x))
#else
#define SOC_TS_ATTR(x)  // no-op outside Clang
#endif

/// Marks a type as a capability (lockable) for the analysis.
#define SOC_CAPABILITY(x) SOC_TS_ATTR(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define SOC_SCOPED_CAPABILITY SOC_TS_ATTR(scoped_lockable)
/// Data member readable/writable only while holding `x`.
#define SOC_GUARDED_BY(x) SOC_TS_ATTR(guarded_by(x))
/// Pointee guarded by `x` (the pointer itself is not).
#define SOC_PT_GUARDED_BY(x) SOC_TS_ATTR(pt_guarded_by(x))
/// Function that must be called while holding the given capabilities.
#define SOC_REQUIRES(...) SOC_TS_ATTR(requires_capability(__VA_ARGS__))
/// Function that acquires the given capabilities and does not release them.
#define SOC_ACQUIRE(...) SOC_TS_ATTR(acquire_capability(__VA_ARGS__))
/// Function that releases the given capabilities.
#define SOC_RELEASE(...) SOC_TS_ATTR(release_capability(__VA_ARGS__))
/// Function that must NOT be called while holding the given capabilities.
#define SOC_EXCLUDES(...) SOC_TS_ATTR(locks_excluded(__VA_ARGS__))

namespace soc {

/// std::mutex with capability attributes so Clang's analysis can track
/// it.  Lock through MutexLock; the raw lock()/unlock() exist for the
/// rare non-scoped pattern and carry the acquire/release attributes.
class SOC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SOC_ACQUIRE() { m_.lock(); }
  void unlock() SOC_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;  // SOC_SHARED(self) — the primitive the wrapper annotates
};

/// Scoped lock: acquires in the constructor, releases in the destructor,
/// and tells the analysis so (std::lock_guard is opaque to it).
class SOC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SOC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SOC_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace soc
