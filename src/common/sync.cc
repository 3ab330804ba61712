#include "common/sync.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <vector>

#if defined(__GLIBC__) || defined(__APPLE__)
#define MEMPHIS_SYNC_HAVE_BACKTRACE 1
#include <execinfo.h>
#else
#define MEMPHIS_SYNC_HAVE_BACKTRACE 0
#endif

namespace memphis {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kFabric:
      return "fabric";
    case LockRank::kFabricStore:
      return "fabric-store";
    case LockRank::kServeQueue:
      return "serve-queue";
    case LockRank::kServeAdmission:
      return "serve-admission";
    case LockRank::kServeSession:
      return "serve-session";
    case LockRank::kServeRequest:
      return "serve-request";
    case LockRank::kSharedStore:
      return "serve-shared-store";
    case LockRank::kPool:
      return "pool";
    case LockRank::kFaultInjection:
      return "fault-injection";
    case LockRank::kCacheTier:
      return "cache-tier";
    case LockRank::kCacheShard:
      return "cache-shard";
    case LockRank::kPersist:
      return "persist";
    case LockRank::kObsExporter:
      return "obs-exporter";
    case LockRank::kMetrics:
      return "metrics";
    case LockRank::kTest:
      return "test";
    case LockRank::kObsRegistry:
      return "obs-registry";
  }
  return "?";
}

namespace sync_internal {
namespace {

constexpr int kMaxFrames = 24;

/// One acquisition on the per-thread stack: which mutex, its declared rank,
/// and where it was taken (raw return addresses; symbolized only on report).
struct HeldLock {
  const void* mu = nullptr;
  LockRank rank = LockRank::kPool;
  const char* name = nullptr;
  bool shared = false;
  int num_frames = 0;
  void* frames[kMaxFrames];
};

std::vector<HeldLock>& Held() {
  static thread_local std::vector<HeldLock> held;
  return held;
}

std::atomic<int64_t> g_violations{0};
std::atomic<bool> g_abort_on_violation{true};
std::atomic<void (*)(const char*)> g_violation_hook{nullptr};
/// Runtime rank graph: bit `inner` of g_edges[outer] records that some thread
/// acquired rank `inner` while holding rank `outer`.
std::atomic<uint64_t> g_edges[kLockRankCount] = {};

bool Enabled() {
  static const bool enabled = [] {
    if (const char* env = std::getenv("MEMPHIS_SYNC_VALIDATE")) {
      return env[0] != '0';
    }
#if defined(NDEBUG)
    return false;
#else
    return true;
#endif
  }();
  return enabled;
}

int CaptureFrames(void** frames) {
#if MEMPHIS_SYNC_HAVE_BACKTRACE
  return backtrace(frames, kMaxFrames);
#else
  (void)frames;
  return 0;
#endif
}

void PrintFrames(void* const* frames, int num_frames) {
#if MEMPHIS_SYNC_HAVE_BACKTRACE
  if (num_frames > 0) {
    backtrace_symbols_fd(const_cast<void* const*>(frames), num_frames,
                         fileno(stderr));
  } else {
    std::fprintf(stderr, "    (no backtrace captured)\n");
  }
#else
  (void)frames;
  (void)num_frames;
  std::fprintf(stderr, "    (backtrace unavailable on this platform)\n");
#endif
}

/// Prints both acquisition stacks (the conflicting held lock's and the
/// current attempt's), bumps the violation counter, and aborts unless the
/// no-abort test hook is set.
void ReportViolation(const char* what, const HeldLock* conflicting,
                     LockRank rank, const char* name) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  void* frames[kMaxFrames];
  const int num_frames = CaptureFrames(frames);
  std::fprintf(stderr,
               "MEMPHIS SYNC VIOLATION: %s: acquiring '%s' (rank %d/%s)",
               what, name, static_cast<int>(rank), LockRankName(rank));
  if (conflicting != nullptr) {
    std::fprintf(stderr, " while holding '%s' (rank %d/%s)",
                 conflicting->name, static_cast<int>(conflicting->rank),
                 LockRankName(conflicting->rank));
  }
  std::fprintf(stderr,
               "\n  see the rank table in src/common/sync.h\n"
               "  current acquisition:\n");
  PrintFrames(frames, num_frames);
  if (conflicting != nullptr) {
    std::fprintf(stderr, "  conflicting lock acquired at:\n");
    PrintFrames(conflicting->frames, conflicting->num_frames);
  }
  const std::vector<HeldLock>& held = Held();
  std::fprintf(stderr, "  held-lock stack (%zu, outermost first):\n",
               held.size());
  for (const HeldLock& h : held) {
    std::fprintf(stderr, "    '%s' (rank %d/%s%s)\n", h.name,
                 static_cast<int>(h.rank), LockRankName(h.rank),
                 h.shared ? ", shared" : "");
  }
  std::fflush(stderr);
  if (void (*hook)(const char*) =
          g_violation_hook.load(std::memory_order_acquire)) {
    hook(what);
  }
  if (g_abort_on_violation.load(std::memory_order_relaxed)) std::abort();
}

}  // namespace

void OnAcquire(const void* mu, LockRank rank, const char* name, bool shared) {
  if (!Enabled()) return;
  std::vector<HeldLock>& held = Held();
  for (const HeldLock& h : held) {
    g_edges[static_cast<int>(h.rank)].fetch_or(
        uint64_t{1} << static_cast<int>(rank), std::memory_order_relaxed);
    if (h.mu == mu) {
      ReportViolation("recursive acquisition", &h, rank, name);
    } else if (static_cast<int>(rank) < static_cast<int>(h.rank)) {
      ReportViolation("lock rank inversion", &h, rank, name);
    } else if (rank == h.rank) {
      ReportViolation("same-rank acquisition", &h, rank, name);
    }
  }
  HeldLock entry;
  entry.mu = mu;
  entry.rank = rank;
  entry.name = name;
  entry.shared = shared;
  entry.num_frames = CaptureFrames(entry.frames);
  held.push_back(entry);
}

void OnRelease(const void* mu) {
  if (!Enabled()) return;
  std::vector<HeldLock>& held = Held();
  // Unlocks are LIFO in practice, but non-LIFO release is legal: scan back.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->mu == mu) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

void AssertHeldImpl(const void* mu, const char* name) {
  if (!Enabled()) return;
  for (const HeldLock& h : Held()) {
    if (h.mu == mu) return;
  }
  ReportViolation("AssertHeld on a lock this thread does not hold", nullptr,
                  LockRank::kPool, name);
}

}  // namespace sync_internal

bool SyncValidatorEnabled() { return sync_internal::Enabled(); }

int64_t RankViolationCount() {
  return sync_internal::g_violations.load(std::memory_order_relaxed);
}

bool SyncEdgeObserved(LockRank outer, LockRank inner) {
  const uint64_t bits = sync_internal::g_edges[static_cast<int>(outer)].load(
      std::memory_order_relaxed);
  return (bits & (uint64_t{1} << static_cast<int>(inner))) != 0;
}

void SetSyncValidatorAbortForTest(bool abort_on_violation) {
  sync_internal::g_abort_on_violation.store(abort_on_violation,
                                            std::memory_order_relaxed);
}

void SetRankViolationHook(void (*hook)(const char* what)) {
  sync_internal::g_violation_hook.store(hook, std::memory_order_release);
}

}  // namespace memphis
