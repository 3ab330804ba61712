#ifndef MEMPHIS_OBS_TRACE_H_
#define MEMPHIS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/request_trace.h"

namespace memphis::obs {

/// Structured trace collector (DESIGN.md §5c): per-thread ring buffers of
/// span/instant events drained into Chrome trace-event JSON that loads in
/// Perfetto / chrome://tracing.
///
/// Two clock domains coexist in one trace:
///   - wall-clock events (pid 1): real time from a process-wide steady
///     clock, one Perfetto track per OS thread;
///   - simulated-time events (pid 2): the virtual clocks of the
///     sim::Timeline / sim::MultiLaneTimeline resources (Spark scheduler
///     lanes, GPU streams, the driver's async pool), one track per lane.
///
/// Cost contract: with tracing disabled every emission macro costs exactly
/// one relaxed atomic load plus a predictable branch -- no allocation, no
/// locking, no clock read. Emission when enabled is lock-free: the owning
/// thread writes its own ring and publishes with one release store. Rings
/// overwrite their oldest events when full; CollectTrace() accounts every
/// overwritten event in `dropped`, so emitted == collected + dropped always
/// holds exactly. The reuse journal (journal.h) uses the same ring type and
/// registry, so a thread's trace and journal events carry one tid.
///
/// Draining (CollectTrace / WriteChromeTrace / ResetTrace, and the journal's
/// CollectJournal / WriteJournalJson / ResetJournal) must run while no
/// thread is concurrently emitting into the drained rings -- in practice at
/// export points after the workload finished and the pool is idle. This is
/// enforced: every enabled emission marks its thread's ring mid-emission
/// around the push, and the drain entry points abort (or count, under the
/// no-abort test hook) if any emission is still in flight.

// --- global switch ----------------------------------------------------------

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// One relaxed load: this is the whole cost of a disabled emission macro.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

void EnableTracing(bool enabled);

/// Capacity (events per thread) of the trace and journal rings created
/// *after* this call, rounded up to a power of two; defaults to 1<<17
/// (~12 MiB per active thread for the trace ring).
void SetEventRingCapacity(size_t capacity);

// --- events -----------------------------------------------------------------

struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// POD event slot. `name`/`cat` must outlive the collector: use string
/// literals or Intern() for dynamic names.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  double ts_us = 0.0;   // wall us since trace epoch, or sim seconds * 1e6.
  double dur_us = 0.0;  // 'X' events only.
  char ph = 'i';        // 'B' | 'E' | 'i' | 'X'.
  int32_t lane = -1;    // >= 0: simulated-time event on this lane (pid 2).
  int32_t tid = 0;      // filled at collection time from the owning ring.
  uint64_t flow_id = 0; // != 0: request id; exporter adds the "rid" arg and
                        // links same-id 'B' spans into one Perfetto flow.
  uint32_t num_args = 0;
  TraceArg args[3];
};

/// Microseconds since the trace epoch (process-wide steady clock).
double TraceNowUs();

/// Interns a dynamic string so its pointer outlives the emission site.
const char* Intern(const std::string& s);

// --- emission (call only when TraceEnabled()) -------------------------------

void EmitBegin(const char* cat, const char* name, uint32_t num_args = 0,
               const TraceArg* args = nullptr);
void EmitEnd(const char* cat, const char* name);
void EmitInstant(const char* cat, const char* name, uint32_t num_args = 0,
                 const TraceArg* args = nullptr);

/// Request-attributed variants: like EmitBegin/EmitInstant but stamp the
/// event with `flow_id` (a request id). A zero flow_id degrades to the plain
/// form. The exporter renders the id as an "rid" arg and links same-id 'B'
/// spans across threads into one Perfetto flow.
void EmitBeginFlow(const char* cat, const char* name, uint64_t flow_id,
                   uint32_t num_args = 0, const TraceArg* args = nullptr);
void EmitInstantFlow(const char* cat, const char* name, uint64_t flow_id,
                     uint32_t num_args = 0, const TraceArg* args = nullptr);

/// A completed span on a simulated-time lane: [start_s, start_s + dur_s) in
/// simulated seconds.
void EmitSimSpan(int lane, const char* name, double start_s, double dur_s);

/// Registers a simulated-time lane (a Timeline or one MultiLaneTimeline
/// sub-lane); the name becomes the Perfetto track name.
int RegisterSimLane(const std::string& name);

/// RAII wall-clock span; emits nothing when tracing is disabled at entry.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name)
      : cat_(cat), name_(name), active_(TraceEnabled()) {
    if (active_) EmitBegin(cat_, name_);
  }
  ScopedSpan(const char* cat, const char* name, const char* k0, double v0)
      : cat_(cat), name_(name), active_(TraceEnabled()) {
    if (active_) {
      TraceArg args[1] = {{k0, v0}};
      EmitBegin(cat_, name_, 1, args);
    }
  }
  ScopedSpan(const char* cat, const char* name, const char* k0, double v0,
             const char* k1, double v1)
      : cat_(cat), name_(name), active_(TraceEnabled()) {
    if (active_) {
      TraceArg args[2] = {{k0, v0}, {k1, v1}};
      EmitBegin(cat_, name_, 2, args);
    }
  }
  ~ScopedSpan() {
    if (active_) EmitEnd(cat_, name_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* cat_;
  const char* name_;
  bool active_;  // Matches E to B even if the flag flips mid-span.
};

/// RAII wall-clock span stamped with a request id (flow id). Used by the
/// MEMPHIS_TRACE_*_REQ macros, which pass the calling thread's current
/// request id; a zero id behaves exactly like ScopedSpan.
class ScopedSpanReq {
 public:
  ScopedSpanReq(const char* cat, const char* name, uint64_t flow_id)
      : cat_(cat), name_(name), active_(TraceEnabled()) {
    if (active_) EmitBeginFlow(cat_, name_, flow_id);
  }
  ScopedSpanReq(const char* cat, const char* name, uint64_t flow_id,
                const char* k0, double v0)
      : cat_(cat), name_(name), active_(TraceEnabled()) {
    if (active_) {
      TraceArg args[1] = {{k0, v0}};
      EmitBeginFlow(cat_, name_, flow_id, 1, args);
    }
  }
  ScopedSpanReq(const char* cat, const char* name, uint64_t flow_id,
                const char* k0, double v0, const char* k1, double v1)
      : cat_(cat), name_(name), active_(TraceEnabled()) {
    if (active_) {
      TraceArg args[2] = {{k0, v0}, {k1, v1}};
      EmitBeginFlow(cat_, name_, flow_id, 2, args);
    }
  }
  ~ScopedSpanReq() {
    if (active_) EmitEnd(cat_, name_);
  }

  ScopedSpanReq(const ScopedSpanReq&) = delete;
  ScopedSpanReq& operator=(const ScopedSpanReq&) = delete;

 private:
  const char* cat_;
  const char* name_;
  bool active_;
};

// --- collection / export ----------------------------------------------------

/// The surviving events of every ring of one kind (TraceEvent or
/// JournalEvent) plus drop accounting: emitted == events.size() + dropped.
template <typename Event>
struct EventSnapshot {
  std::vector<Event> events;  // Oldest-first per tid.
  uint64_t emitted = 0;       // Total events ever pushed.
  uint64_t dropped = 0;       // Overwritten by ring wrap-around.
};
using TraceSnapshot = EventSnapshot<TraceEvent>;

/// Copies every ring's surviving events (plus drop accounting). Call while
/// no thread is emitting.
TraceSnapshot CollectTrace();

/// Clears all rings and counters (tests / between bench configurations).
void ResetTrace();

/// Crash-path collection: identical to CollectTrace but skips the quiescence
/// assertion -- the flight recorder drains mid-crash when other threads may
/// still be emitting, accepting a best-effort (possibly torn) tail in
/// exchange for post-mortem evidence.
TraceSnapshot CollectTraceForCrash();

// --- quiescence enforcement -------------------------------------------------

/// Trace or journal drains so far that found an emission mid-flight.
/// Nonzero means the quiescence contract above was violated.
int64_t QuiescenceViolations();

/// Test hook: when false, a quiescence violation is counted and reported to
/// stderr instead of aborting. Tests must restore the default (true).
void SetQuiescenceAbortForTest(bool abort_on_violation);

/// Test hook: invoked on the emitting thread (trace or journal) after it
/// registers as mid-emission but before the ring push, so a test can
/// deterministically hold a worker inside the emission window. Pass nullptr
/// to uninstall.
void SetEmissionPauseHookForTest(void (*hook)());

/// Drains everything into Chrome trace-event JSON at `path`. Unbalanced
/// events caused by ring wrap-around are repaired (leading 'E's dropped,
/// trailing 'B's closed) so the file always validates. Returns false on I/O
/// failure.
bool WriteChromeTrace(const std::string& path);

// --- macros -----------------------------------------------------------------

#define MEMPHIS_OBS_CONCAT_INNER(a, b) a##b
#define MEMPHIS_OBS_CONCAT(a, b) MEMPHIS_OBS_CONCAT_INNER(a, b)

/// Wall-clock span covering the rest of the enclosing scope.
#define MEMPHIS_TRACE_SPAN(cat, name) \
  ::memphis::obs::ScopedSpan MEMPHIS_OBS_CONCAT(memphis_span_, \
                                                __COUNTER__)(cat, name)
#define MEMPHIS_TRACE_SPAN1(cat, name, k0, v0)                      \
  ::memphis::obs::ScopedSpan MEMPHIS_OBS_CONCAT(memphis_span_,      \
                                                __COUNTER__)(cat, name, k0, \
                                                             v0)
#define MEMPHIS_TRACE_SPAN2(cat, name, k0, v0, k1, v1)              \
  ::memphis::obs::ScopedSpan MEMPHIS_OBS_CONCAT(memphis_span_,      \
                                                __COUNTER__)(cat, name, k0, \
                                                             v0, k1, v1)

#define MEMPHIS_TRACE_INSTANT(cat, name)                 \
  do {                                                   \
    if (::memphis::obs::TraceEnabled()) {                \
      ::memphis::obs::EmitInstant(cat, name);            \
    }                                                    \
  } while (0)
#define MEMPHIS_TRACE_INSTANT1(cat, name, k0, v0)        \
  do {                                                   \
    if (::memphis::obs::TraceEnabled()) {                \
      ::memphis::obs::TraceArg memphis_args[1] = {{k0, v0}};        \
      ::memphis::obs::EmitInstant(cat, name, 1, memphis_args);      \
    }                                                    \
  } while (0)
/// Explicit span bracket for ranges that don't follow scope shape (e.g.
/// spans opened in one branch and closed in another). Every BEGIN in a
/// function must have a matching END on the same (cat, name) literals --
/// scripts/memphis_lint.py enforces the pairing; prefer MEMPHIS_TRACE_SPAN
/// when the range is scope-shaped.
#define MEMPHIS_TRACE_BEGIN(cat, name)                   \
  do {                                                   \
    if (::memphis::obs::TraceEnabled()) {                \
      ::memphis::obs::EmitBegin(cat, name);              \
    }                                                    \
  } while (0)
#define MEMPHIS_TRACE_END(cat, name)                     \
  do {                                                   \
    if (::memphis::obs::TraceEnabled()) {                \
      ::memphis::obs::EmitEnd(cat, name);                \
    }                                                    \
  } while (0)

#define MEMPHIS_TRACE_INSTANT2(cat, name, k0, v0, k1, v1)           \
  do {                                                   \
    if (::memphis::obs::TraceEnabled()) {                \
      ::memphis::obs::TraceArg memphis_args[2] = {{k0, v0}, {k1, v1}};  \
      ::memphis::obs::EmitInstant(cat, name, 2, memphis_args);      \
    }                                                    \
  } while (0)

/// Request-attributed forms: identical to the plain macros, plus the calling
/// thread's current request id as the event's flow id (0 when no request is
/// in scope -- then they behave exactly like the plain forms). Spans under
/// src/serve/ and src/cache/ must use these; scripts/memphis_lint.py's
/// span-rid rule enforces it (allow(span-rid) for legitimately global
/// sites). Disabled cost is unchanged: one relaxed load, the thread-local
/// read happens only when tracing is on.
#define MEMPHIS_TRACE_SPAN_REQ(cat, name)                            \
  ::memphis::obs::ScopedSpanReq MEMPHIS_OBS_CONCAT(memphis_span_,    \
                                                   __COUNTER__)(     \
      cat, name, ::memphis::obs::CurrentRequestId())
#define MEMPHIS_TRACE_SPAN1_REQ(cat, name, k0, v0)                   \
  ::memphis::obs::ScopedSpanReq MEMPHIS_OBS_CONCAT(memphis_span_,    \
                                                   __COUNTER__)(     \
      cat, name, ::memphis::obs::CurrentRequestId(), k0, v0)
#define MEMPHIS_TRACE_SPAN2_REQ(cat, name, k0, v0, k1, v1)           \
  ::memphis::obs::ScopedSpanReq MEMPHIS_OBS_CONCAT(memphis_span_,    \
                                                   __COUNTER__)(     \
      cat, name, ::memphis::obs::CurrentRequestId(), k0, v0, k1, v1)

#define MEMPHIS_TRACE_INSTANT_REQ(cat, name)                         \
  do {                                                               \
    if (::memphis::obs::TraceEnabled()) {                            \
      ::memphis::obs::EmitInstantFlow(                               \
          cat, name, ::memphis::obs::CurrentRequestId());            \
    }                                                                \
  } while (0)
#define MEMPHIS_TRACE_INSTANT1_REQ(cat, name, k0, v0)                \
  do {                                                               \
    if (::memphis::obs::TraceEnabled()) {                            \
      ::memphis::obs::TraceArg memphis_args[1] = {{k0, v0}};         \
      ::memphis::obs::EmitInstantFlow(                               \
          cat, name, ::memphis::obs::CurrentRequestId(), 1,          \
          memphis_args);                                             \
    }                                                                \
  } while (0)
#define MEMPHIS_TRACE_INSTANT2_REQ(cat, name, k0, v0, k1, v1)        \
  do {                                                               \
    if (::memphis::obs::TraceEnabled()) {                            \
      ::memphis::obs::TraceArg memphis_args[2] = {{k0, v0}, {k1, v1}}; \
      ::memphis::obs::EmitInstantFlow(                               \
          cat, name, ::memphis::obs::CurrentRequestId(), 2,          \
          memphis_args);                                             \
    }                                                                \
  } while (0)

}  // namespace memphis::obs

#endif  // MEMPHIS_OBS_TRACE_H_
