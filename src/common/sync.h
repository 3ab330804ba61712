#ifndef MEMPHIS_COMMON_SYNC_H_
#define MEMPHIS_COMMON_SYNC_H_

// Annotated synchronization layer (DESIGN.md §5d). Every lock in the repo is
// one of the wrappers below; raw std::mutex / std::lock_guard /
// std::unique_lock / std::condition_variable are banned outside this header
// (enforced by scripts/memphis_lint.py, which runs as a tier-1 ctest).
//
// The wrappers carry two complementary enforcement mechanisms:
//
//  1. Clang Thread Safety Analysis attributes (compile time, every path):
//     build with -DMEMPHIS_THREAD_SAFETY=ON under clang and GUARDED_BY /
//     REQUIRES violations become -Werror=thread-safety-analysis errors.
//     Under GCC the attribute macros expand to nothing.
//
//  2. A runtime lock-rank validator (debug builds, executed paths): every
//     Mutex is constructed with a LockRank; a per-thread held-lock stack
//     checks each acquisition against the rank table below and aborts --
//     printing both acquisition backtraces, Abseil-deadlock-detector style --
//     on rank inversion, same-rank nesting, or recursive acquisition.
//     Violations are also counted in the "sync.rank_violations" metric.
//
// This only works because locks are never held across calls into unknown
// code: keep critical sections small and leaf-like.

#include <chrono>
#include <condition_variable>  // memphis-lint: allow(raw-sync) -- the one wrapper site.
#include <mutex>               // memphis-lint: allow(raw-sync)
#include <shared_mutex>        // memphis-lint: allow(raw-sync)

// --- Clang Thread Safety Analysis attribute macros --------------------------

#if defined(__clang__) && !defined(SWIG)
#define MEMPHIS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MEMPHIS_THREAD_ANNOTATION__(x)  // no-op on GCC / MSVC
#endif

#define MEMPHIS_CAPABILITY(x) MEMPHIS_THREAD_ANNOTATION__(capability(x))
#define MEMPHIS_SCOPED_CAPABILITY MEMPHIS_THREAD_ANNOTATION__(scoped_lockable)
#define MEMPHIS_GUARDED_BY(x) MEMPHIS_THREAD_ANNOTATION__(guarded_by(x))
#define MEMPHIS_PT_GUARDED_BY(x) MEMPHIS_THREAD_ANNOTATION__(pt_guarded_by(x))
#define MEMPHIS_REQUIRES(...) \
  MEMPHIS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define MEMPHIS_REQUIRES_SHARED(...) \
  MEMPHIS_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define MEMPHIS_ACQUIRE(...) \
  MEMPHIS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define MEMPHIS_ACQUIRE_SHARED(...) \
  MEMPHIS_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define MEMPHIS_RELEASE(...) \
  MEMPHIS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define MEMPHIS_RELEASE_SHARED(...) \
  MEMPHIS_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define MEMPHIS_TRY_ACQUIRE(...) \
  MEMPHIS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define MEMPHIS_EXCLUDES(...) \
  MEMPHIS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define MEMPHIS_ASSERT_CAPABILITY(x) \
  MEMPHIS_THREAD_ANNOTATION__(assert_capability(x))
#define MEMPHIS_ASSERT_SHARED_CAPABILITY(x) \
  MEMPHIS_THREAD_ANNOTATION__(assert_shared_capability(x))
#define MEMPHIS_RETURN_CAPABILITY(x) \
  MEMPHIS_THREAD_ANNOTATION__(lock_returned(x))
#define MEMPHIS_NO_THREAD_SAFETY_ANALYSIS \
  MEMPHIS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace memphis {

// --- the repo-wide lock-rank table ------------------------------------------
//
// Locks must be acquired in strictly increasing rank order; the runtime
// validator aborts on any acquisition whose rank is <= a rank already held
// by the same thread. This is the single source of truth -- add new locks
// here, between existing rows, with a sentence on why they sit where they do.
//
//  rank | name            | mutex                              | why here
//  -----+-----------------+------------------------------------+-------------
//   0   | kFabric         | ServingFabric::mu_                 | outermost of
//       |                 |                                    | the whole
//       |                 |                                    | stack: fabric
//       |                 |                                    | routing and
//       |                 |                                    | failover may
//       |                 |                                    | submit into a
//       |                 |                                    | site's
//       |                 |                                    | SessionManager
//       |                 |                                    | (serve-queue
//       |                 |                                    | and below)
//       |                 |                                    | while held.
//   1   | kFabricStore    | FabricStore::mu_                   | cross-site
//       |                 |                                    | tier above
//       |                 |                                    | the shared
//       |                 |                                    | store: warming
//       |                 |                                    | a site streams
//       |                 |                                    | entries into
//       |                 |                                    | its session
//       |                 |                                    | cache (shared-
//       |                 |                                    | store / cache-
//       |                 |                                    | tier ranks)
//       |                 |                                    | while held.
//   2   | kServeQueue     | SessionManager::queue_mu_          | outermost of
//       |                 |                                    | the serving
//       |                 |                                    | layer: submit
//       |                 |                                    | and worker
//       |                 |                                    | pops hold it
//       |                 |                                    | only around
//       |                 |                                    | queue ops,
//       |                 |                                    | never across
//       |                 |                                    | execution.
//   3   | kServeAdmission | AdmissionController::mu_           | quota check /
//       |                 |                                    | release; may
//       |                 |                                    | nest inside a
//       |                 |                                    | queue-lock-
//       |                 |                                    | free submit
//       |                 |                                    | path but sits
//       |                 |                                    | above nothing
//       |                 |                                    | of its own.
//   4   | kServeSession   | SessionManager::session_mu_        | worker/session
//       |                 |                                    | table book-
//       |                 |                                    | keeping (who
//       |                 |                                    | serves which
//       |                 |                                    | tenant);
//       |                 |                                    | queue <
//       |                 |                                    | session-table
//       |                 |                                    | by design --
//       |                 |                                    | see DESIGN.md
//       |                 |                                    | section 5e.
//   5   | kServeRequest   | RequestTicket::mu_                 | per-request
//       |                 |                                    | completion
//       |                 |                                    | latch; signal
//       |                 |                                    | and wait both
//       |                 |                                    | happen with
//       |                 |                                    | no other lock
//       |                 |                                    | held.
//   6   | kSharedStore    | SharedLineageStore::mu_            | cross-session
//       |                 |                                    | store; sits
//       |                 |                                    | above the
//       |                 |                                    | cache tier so
//       |                 |                                    | WarmInto can
//       |                 |                                    | stream entries
//       |                 |                                    | into a session
//       |                 |                                    | cache while
//       |                 |                                    | holding it.
//   7   | kCacheTier      | LineageCache::tier_mu_             | outermost:
//       |                 |                                    | tier managers
//       |                 |                                    | erase victim
//       |                 |                                    | keys (shard
//       |                 |                                    | lock) and
//       |                 |                                    | submit async
//       |                 |                                    | Spark jobs
//       |                 |                                    | (pool lock)
//       |                 |                                    | while held.
//   8   | kCacheShard     | LineageCache::Shard::mu            | inside the
//       |                 |                                    | tier lock;
//       |                 |                                    | two shards
//       |                 |                                    | never nest.
//   9   | kPersist        | PersistentTier::mu_                | disk tier:
//       |                 |                                    | probed from
//       |                 |                                    | Reuse under
//       |                 |                                    | the tier lock
//       |                 |                                    | (host miss ->
//       |                 |                                    | disk probe)
//       |                 |                                    | and appended
//       |                 |                                    | to under the
//       |                 |                                    | shared-store
//       |                 |                                    | lock, so it
//       |                 |                                    | sits below
//       |                 |                                    | both; segment
//       |                 |                                    | IO never
//       |                 |                                    | takes another
//       |                 |                                    | lock.
//  10   | kPool           | ThreadPool::mu_                    | leaf-like:
//       |                 |                                    | scoped to
//       |                 |                                    | queue ops,
//       |                 |                                    | never held
//       |                 |                                    | across chunk
//       |                 |                                    | code; nests
//       |                 |                                    | inside the
//       |                 |                                    | tier lock via
//       |                 |                                    | background
//       |                 |                                    | count() jobs.
//  11   | kFaultInjection | fault_injection.cc FaultState::mu  | leaf of the
//       |                 |                                    | kernel path;
//       |                 |                                    | kernels may
//       |                 |                                    | run under
//       |                 |                                    | cache locks.
//  12   | kObsExporter    | SnapshotExporter::mu_              | the periodic
//       |                 |                                    | exporter
//       |                 |                                    | snapshots the
//       |                 |                                    | global
//       |                 |                                    | registry
//       |                 |                                    | (kMetrics)
//       |                 |                                    | while holding
//       |                 |                                    | its own lock,
//       |                 |                                    | so it sits
//       |                 |                                    | just below.
//  13   | kMetrics        | MetricsRegistry::mu_               | snapshot
//       |                 |                                    | callbacks
//       |                 |                                    | must stay
//       |                 |                                    | lock-free
//       |                 |                                    | (atomics
//       |                 |                                    | only).
//  14   | kTest           | test-local mutexes                 | leaf locks in
//       |                 |                                    | tests; may
//       |                 |                                    | wrap traced
//       |                 |                                    | code, so the
//       |                 |                                    | obs rank
//       |                 |                                    | stays above.
//  15   | kObsRegistry    | obs/trace.cc Registry::mu          | innermost: a
//       |                 |                                    | thread's
//       |                 |                                    | first trace
//       |                 |                                    | or journal
//       |                 |                                    | event
//       |                 |                                    | registers its
//       |                 |                                    | ring under
//       |                 |                                    | any lock.
enum class LockRank : int {
  kFabric = 0,
  kFabricStore = 1,
  kServeQueue = 2,
  kServeAdmission = 3,
  kServeSession = 4,
  kServeRequest = 5,
  kSharedStore = 6,
  kCacheTier = 7,
  kCacheShard = 8,
  kPersist = 9,
  kPool = 10,
  kFaultInjection = 11,
  kObsExporter = 12,
  kMetrics = 13,
  kTest = 14,
  kObsRegistry = 15,
};
inline constexpr int kLockRankCount = 16;

/// Stable display name of a rank ("pool", "cache-shard", ...).
const char* LockRankName(LockRank rank);

// --- runtime validator hooks (implemented in sync.cc) -----------------------

namespace sync_internal {
/// Checks `rank` against the calling thread's held-lock stack and pushes the
/// acquisition (with a captured backtrace). Called *before* blocking on the
/// underlying mutex so a would-be deadlock still reports. No-op when the
/// validator is disabled.
void OnAcquire(const void* mu, LockRank rank, const char* name, bool shared);
/// Pops `mu` from the calling thread's held-lock stack.
void OnRelease(const void* mu);
/// Aborts (or counts, in no-abort test mode) unless `mu` is on the calling
/// thread's held-lock stack.
void AssertHeldImpl(const void* mu, const char* name);
}  // namespace sync_internal

/// True when the rank validator is active (debug builds by default; override
/// with the MEMPHIS_SYNC_VALIDATE=0/1 environment variable, read once).
bool SyncValidatorEnabled();

/// Total rank/recursion violations detected so far, process-wide. Published
/// as the "sync.rank_violations" callback metric on the global registry.
int64_t RankViolationCount();

/// True when the validator has observed a thread acquiring `inner` while
/// holding `outer` (the runtime rank graph; used by tests and reports).
bool SyncEdgeObserved(LockRank outer, LockRank inner);

/// Test hook: when `abort_on_violation` is false, violations are counted and
/// reported to stderr but do not abort. Tests must restore the default.
void SetSyncValidatorAbortForTest(bool abort_on_violation);

/// Installs a callback invoked from the violation report path (after the
/// diagnostics print, before a potential abort). The observability layer
/// hangs its flight recorder here so a lock-rank abort dumps the last trace
/// and journal events first. The callback runs on the violating thread and
/// must not acquire ranked locks; pass nullptr to uninstall.
void SetRankViolationHook(void (*hook)(const char* what));

// --- primitives -------------------------------------------------------------

/// Exclusive mutex with a mandatory rank and name. Drop-in for the previous
/// raw std::mutex members; lock it with MutexLock.
class MEMPHIS_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MEMPHIS_ACQUIRE() {
    sync_internal::OnAcquire(this, rank_, name_, /*shared=*/false);
    mu_.lock();
  }
  void Unlock() MEMPHIS_RELEASE() {
    mu_.unlock();
    sync_internal::OnRelease(this);
  }
  bool TryLock() MEMPHIS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::OnAcquire(this, rank_, name_, /*shared=*/false);
    return true;
  }
  /// Statically tells the analysis -- and dynamically checks, under the
  /// validator -- that the calling thread holds this mutex. Use in callbacks
  /// invoked under a lock the analysis cannot see (e.g. eviction hooks).
  void AssertHeld() const MEMPHIS_ASSERT_CAPABILITY(this) {
    sync_internal::AssertHeldImpl(this, name_);
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

  // BasicLockable interface so CondVar can wait on a Mutex directly. Not for
  // call sites -- use Lock()/Unlock() or MutexLock.
  void lock() MEMPHIS_NO_THREAD_SAFETY_ANALYSIS { Lock(); }
  void unlock() MEMPHIS_NO_THREAD_SAFETY_ANALYSIS { Unlock(); }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// Reader/writer mutex. Writers use WriterLock (or Lock/Unlock); readers use
/// ReaderLock. Same rank rules as Mutex; a shared re-acquisition on the same
/// thread is still flagged (it deadlocks std::shared_mutex if a writer is
/// waiting in between).
class MEMPHIS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MEMPHIS_ACQUIRE() {
    sync_internal::OnAcquire(this, rank_, name_, /*shared=*/false);
    mu_.lock();
  }
  void Unlock() MEMPHIS_RELEASE() {
    mu_.unlock();
    sync_internal::OnRelease(this);
  }
  void LockShared() MEMPHIS_ACQUIRE_SHARED() {
    sync_internal::OnAcquire(this, rank_, name_, /*shared=*/true);
    mu_.lock_shared();
  }
  void UnlockShared() MEMPHIS_RELEASE_SHARED() {
    mu_.unlock_shared();
    sync_internal::OnRelease(this);
  }
  void AssertHeld() const MEMPHIS_ASSERT_CAPABILITY(this) {
    sync_internal::AssertHeldImpl(this, name_);
  }
  void AssertReaderHeld() const MEMPHIS_ASSERT_SHARED_CAPABILITY(this) {
    sync_internal::AssertHeldImpl(this, name_);
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

// --- RAII lockers -----------------------------------------------------------

/// Scoped exclusive lock on a Mutex (replaces std::lock_guard).
class MEMPHIS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MEMPHIS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MEMPHIS_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock on a SharedMutex.
class MEMPHIS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) MEMPHIS_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() MEMPHIS_RELEASE() { mu_.Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (read) lock on a SharedMutex.
class MEMPHIS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) MEMPHIS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() MEMPHIS_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// --- condition variable -----------------------------------------------------

/// Condition variable waiting on a memphis::Mutex. No predicate overload on
/// purpose: write the `while (!cond) cv.Wait(&mu);` loop at the call site so
/// the condition reads its GUARDED_BY fields inside the analyzed scope
/// (Clang TSA does not propagate capabilities into predicate lambdas).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu, blocks, and re-acquires before returning; may
  /// wake spuriously. The validator pops/pushes the held-lock stack through
  /// the release/re-acquire, so rank checks stay exact across waits.
  void Wait(Mutex* mu) MEMPHIS_REQUIRES(mu) { cv_.wait(*mu); }

  /// Like Wait but gives up after `timeout_ms` (wall-clock; serve-layer
  /// drains and request deadlines are real time, not simulated time).
  /// Returns false iff the wait timed out without a notification. Callers
  /// still re-check their predicate either way.
  bool WaitFor(Mutex* mu, double timeout_ms) MEMPHIS_REQUIRES(mu) {
    // memphis-lint: allow(wall-clock) -- bounded waits are host-time.
    return cv_.wait_for(*mu, std::chrono::duration<double, std::milli>(
                                 timeout_ms)) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace memphis

#endif  // MEMPHIS_COMMON_SYNC_H_
