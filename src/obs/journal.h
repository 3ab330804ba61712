#ifndef MEMPHIS_OBS_JOURNAL_H_
#define MEMPHIS_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/request_trace.h"
#include "obs/trace.h"

namespace memphis::obs {

/// Reuse-decision journal (DESIGN.md §5h): a lock-free per-thread record of
/// every cache decision the system makes -- probe / hit / miss / put / evict
/// / harvest / promote / warm / shed -- with the tier that answered, the
/// cost score and byte size involved, a reason code, and the request id +
/// tenant of the thread-local RequestContext at emission time. Drained as
/// line-oriented JSON and rendered per request by the memphis_explain CLI.
///
/// The journal shares the trace collector's ring type, registry, capacity
/// setter (SetEventRingCapacity) and quiescence check (trace.h), and keeps
/// its own switch: with the journal disabled every MEMPHIS_JOURNAL site
/// costs exactly one relaxed atomic load plus a predictable branch; enabled
/// emission is a lock-free push into the calling thread's journal ring.
/// Rings overwrite oldest events when full; CollectJournal accounts
/// overwritten events in `dropped` so emitted == collected + dropped holds.
/// Drain (CollectJournal / ResetJournal / WriteJournalJson) only while no
/// thread is emitting.

// --- global switch ----------------------------------------------------------

namespace internal {
extern std::atomic<bool> g_journal_enabled;
}  // namespace internal

/// One relaxed load: the whole cost of a disabled MEMPHIS_JOURNAL site.
inline bool JournalEnabled() {
  return internal::g_journal_enabled.load(std::memory_order_relaxed);
}

void EnableJournal(bool enabled);

// --- events -----------------------------------------------------------------

enum class JournalKind : uint8_t {
  kProbe,    // LineageCache::Reuse entered (exactly one per stats probe).
  kHit,      // probe answered from a tier (tier says which).
  kMiss,     // probe answered nothing (reason says why, if notable).
  kPut,      // a computed value entered a tier.
  kEvict,    // a value left a tier to make room (reason kQuota) or by d2h.
  kHarvest,  // a session entry was copied up into the shared store / disk.
  kPromote,  // a disk entry was promoted into the host tier on a probe.
  kWarm,     // a shared-store entry was streamed into a session cache.
  kShed,     // the serving layer refused or abandoned a request.
};

enum class JournalTier : uint8_t {
  kNone,
  kHost,
  kScalar,
  kRdd,
  kGpu,
  kDisk,
  kStore,
};

enum class JournalReason : uint8_t {
  kNone,
  kPlaceholder,     // delayed-caching placeholder, not yet materialized.
  kInvalidatedGpu,  // GPU entry dropped by eviction between put and probe.
  kAdmission,       // shed: per-tenant admission quota.
  kQueueFull,       // shed: bounded queue at capacity (or stopping).
  kDeadline,        // shed: deadline expired before a worker picked it up.
  kOversize,        // store put rejected: entry larger than the quota.
  kQuota,           // evicted to fit a byte budget.
  kSessionLocal,    // store put skipped: lineage has session-local leaves.
  kShutdown,        // shed: manager draining at shutdown.
};

/// Stable lowercase names ("probe", "host", "queue-full", ...) used by the
/// JSON export and memphis_explain.
const char* ToString(JournalKind kind);
const char* ToString(JournalTier tier);
const char* ToString(JournalReason reason);

/// POD journal slot. `tenant` must outlive the collector (interned or a
/// literal); it is captured from the thread-local RequestContext.
struct JournalEvent {
  uint64_t rid = 0;
  uint64_t key_hash = 0;  // lineage-key hash; 0 when not key-scoped (sheds).
  double ts_us = 0.0;     // wall us on the trace epoch (TraceNowUs).
  double cost = 0.0;      // compute-cost score where the decision had one.
  double bytes = 0.0;     // payload size where the decision had one.
  JournalKind kind = JournalKind::kProbe;
  JournalTier tier = JournalTier::kNone;
  JournalReason reason = JournalReason::kNone;
  const char* tenant = nullptr;
  int32_t tid = 0;  // filled at collection time; equals the thread's trace tid.
};

// --- emission (call only when JournalEnabled()) -----------------------------

/// Pushes one decision onto the calling thread's ring, stamping it with the
/// current RequestContext's rid and tenant.
void EmitJournal(JournalKind kind, JournalTier tier, JournalReason reason,
                 uint64_t key_hash, double cost, double bytes);

#define MEMPHIS_JOURNAL(kind, tier, reason, key_hash, cost, bytes)       \
  do {                                                                   \
    if (::memphis::obs::JournalEnabled()) {                              \
      ::memphis::obs::EmitJournal(::memphis::obs::JournalKind::kind,     \
                                  ::memphis::obs::JournalTier::tier,     \
                                  ::memphis::obs::JournalReason::reason, \
                                  key_hash, cost, bytes);                \
    }                                                                    \
  } while (0)

// --- collection / export ----------------------------------------------------

using JournalSnapshot = EventSnapshot<JournalEvent>;

/// Copies every ring's surviving events. Call while no thread is emitting.
JournalSnapshot CollectJournal();

/// Clears all rings (tests / between bench configurations).
void ResetJournal();

/// Crash-path collection: CollectJournal without the quiescence check (see
/// CollectTraceForCrash).
JournalSnapshot CollectJournalForCrash();

/// Writes the journal as JSON with one event object per line (the format
/// memphis_explain parses):
///   {"memphis_journal":1,"emitted":N,"dropped":N,"events":[
///   {"rid":3,"kind":"probe","tier":"none",...},
///   ...
///   ]}
/// Returns false on I/O failure.
bool WriteJournalJson(const std::string& path);

}  // namespace memphis::obs

#endif  // MEMPHIS_OBS_JOURNAL_H_
