#ifndef MEMPHIS_OBS_EVENT_RING_H_
#define MEMPHIS_OBS_EVENT_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

/// Internal to src/obs: the per-thread event ring behind both the trace
/// collector (trace.h) and the reuse journal (journal.h), the registry that
/// owns every ring, and the helpers every obs output is written through. The
/// registry, the JSON escaper and the file writer are defined in trace.cc.

namespace memphis::obs {
struct JournalEvent;
}  // namespace memphis::obs

namespace memphis::obs::internal {

extern std::atomic<void (*)()> g_emission_pause_hook;

/// One thread's ring of `Event`s (TraceEvent or JournalEvent). The owner
/// pushes lock-free (plain slot write + release head store); drains read
/// under the registry mutex while the system is quiescent. The ring doubles
/// as the thread's mid-emission marker: a global in-flight counter would put
/// one shared cache line in every emission's path (two contended RMWs per
/// event, which the observer-effect gate in validate_bench.py would reject),
/// whereas the ring's own line is already in the emitting thread's cache.
/// Only the owner writes it, so a relaxed read + release store suffices; a
/// checked drain sums the markers across the rings it drains.
template <typename Event>
class EventRing {
 public:
  EventRing(int tid, size_t capacity)
      : tid_(tid), capacity_(capacity), slots_(capacity) {}

  /// Marks the thread mid-emission, runs the test pause hook, then pushes.
  void Push(const Event& event) {
    mid_emission_.store(mid_emission_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
    if (void (*hook)() = g_emission_pause_hook.load(std::memory_order_acquire))
      hook();
    const uint64_t head = head_.load(std::memory_order_relaxed);
    slots_[head & (capacity_ - 1)] = event;
    head_.store(head + 1, std::memory_order_release);
    mid_emission_.store(mid_emission_.load(std::memory_order_relaxed) - 1,
                        std::memory_order_release);
  }

  int64_t InFlight() const {
    return mid_emission_.load(std::memory_order_acquire);
  }

  void CollectInto(EventSnapshot<Event>* out) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t survivors = std::min<uint64_t>(head, capacity_);
    out->emitted += head;
    out->dropped += head - survivors;
    for (uint64_t i = head - survivors; i < head; ++i) {
      Event event = slots_[i & (capacity_ - 1)];
      event.tid = tid_;
      out->events.push_back(event);
    }
  }

  void Reset() { head_.store(0, std::memory_order_release); }

 private:
  const int tid_;
  const size_t capacity_;
  std::vector<Event> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<int64_t> mid_emission_{0};
};

/// Creates the calling thread's ring of `Event` and registers it under the
/// registry mutex (the innermost lock rank, so a thread's first emission is
/// safe under any lock). A thread's trace and journal rings share one tid.
template <typename Event>
std::shared_ptr<EventRing<Event>> RegisterThreadRing();

/// The calling thread's ring of `Event`, registered on first use.
template <typename Event>
EventRing<Event>& ThreadRing() {
  thread_local std::shared_ptr<EventRing<Event>> ring =
      RegisterThreadRing<Event>();
  return *ring;
}

/// Copies every ring of `Event`. A checked drain (`what` names the public
/// entry point) counts a quiescence violation -- an abort outside tests --
/// when an emission into those rings is in flight; the crash path passes
/// nullptr to skip the check.
template <typename Event>
EventSnapshot<Event> CollectRings(const char* what);

/// Clears every ring of `Event`, with the same check as CollectRings.
template <typename Event>
void ResetRings(const char* what);

/// Appends `s` with JSON string escaping (quotes, backslashes, control
/// characters); nullptr appends nothing.
void AppendJsonEscaped(std::string* out, const char* s);

/// Writes `contents` to `path`, replacing the file. Returns false on I/O
/// failure.
bool WriteTextFile(const std::string& path, const std::string& contents);

/// Appends one journal event as the JSON object both the journal file and
/// the flight recorder's journal tail use (defined in journal.cc).
void AppendJournalEventJson(std::string* out, const JournalEvent& event);

}  // namespace memphis::obs::internal

#endif  // MEMPHIS_OBS_EVENT_RING_H_
