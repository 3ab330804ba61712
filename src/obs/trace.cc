#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/sync.h"
#include "obs/event_ring.h"
#include "obs/journal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define MEMPHIS_OBS_TSC 1
#endif

namespace memphis::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
std::atomic<void (*)()> g_emission_pause_hook{nullptr};
}  // namespace internal

namespace {

using internal::AppendJsonEscaped;
using internal::EventRing;

template <typename Event>
using Rings = std::vector<std::shared_ptr<EventRing<Event>>>;

std::atomic<int64_t> g_quiescence_violations{0};
std::atomic<bool> g_quiescence_abort{true};

/// The one registry of every thread's trace and journal rings.
struct Registry {
  // Innermost rank: a thread's first trace or journal event registers its
  // ring from inside arbitrary lock scopes (e.g. a probe under a cache shard
  // lock).
  Mutex mu{LockRank::kObsRegistry, "obs-registry"};
  std::tuple<Rings<TraceEvent>, Rings<JournalEvent>> rings
      MEMPHIS_GUARDED_BY(mu);
  std::vector<std::string> lane_names MEMPHIS_GUARDED_BY(mu);
  std::unordered_set<std::string> interned MEMPHIS_GUARDED_BY(mu);
  size_t ring_capacity MEMPHIS_GUARDED_BY(mu) = size_t{1} << 17;
  int next_tid MEMPHIS_GUARDED_BY(mu) = 1;
  // Written once at construction, then read locklessly by TraceNowUs.
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  // TSC timebase: a raw rdtsc is ~3x cheaper than steady_clock::now() and
  // the clock sits in every trace AND journal event, so it is the single
  // largest per-event cost. Calibrated once against the steady clock (half
  // a millisecond spin, paid on first registry use -- i.e. only when
  // observability is actually exercised); us_per_tick == 0 means no usable
  // TSC and TraceNowUs falls back to the steady clock.
  uint64_t tsc_epoch = 0;
  double us_per_tick = 0.0;

  Registry() {
#if MEMPHIS_OBS_TSC
    const uint64_t t0 = __rdtsc();
    const auto deadline = epoch + std::chrono::microseconds(500);
    while (std::chrono::steady_clock::now() < deadline) {
    }
    const uint64_t t1 = __rdtsc();
    const auto elapsed = std::chrono::steady_clock::now() - epoch;
    if (t1 > t0) {
      us_per_tick =
          std::chrono::duration<double, std::micro>(elapsed).count() /
          static_cast<double>(t1 - t0);
      tsc_epoch = t0;
    }
#endif
  }
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// One thread_local outside the per-event-type templates, so a thread's trace
// and journal rings share a tid (0 until the thread's first ring).
thread_local int t_tid = 0;

/// Visits every ring of `Event` under the registry mutex. A checked visit
/// (`what` != nullptr) reports the emissions it found in flight only after
/// releasing the mutex: an armed flight recorder's SIGABRT handler drains
/// this same registry, so aborting with the mutex held would hang the dump.
template <typename Event, typename Visit>
void VisitRings(const char* what, Visit visit) {
  int64_t in_flight = 0;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mu);
    for (const auto& ring : std::get<Rings<Event>>(registry.rings)) {
      in_flight += ring->InFlight();
      visit(*ring);
    }
  }
  if (what == nullptr || in_flight == 0) return;
  g_quiescence_violations.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "MEMPHIS OBS QUIESCENCE VIOLATION: %s called while %lld "
               "emission(s) in flight -- drain only after the pool is idle "
               "(see the contract in src/obs/trace.h)\n",
               what, static_cast<long long>(in_flight));
  std::fflush(stderr);
  if (g_quiescence_abort.load(std::memory_order_relaxed)) std::abort();
}

void FillArgs(TraceEvent* event, uint32_t num_args, const TraceArg* args) {
  event->num_args = std::min<uint32_t>(num_args, 3);
  for (uint32_t i = 0; i < event->num_args; ++i) event->args[i] = args[i];
}

void AppendEvent(std::string* out, const TraceEvent& event) {
  const bool sim = event.lane >= 0;
  char buffer[96];
  out->append("{\"name\":\"");
  AppendJsonEscaped(out, event.name != nullptr ? event.name : "?");
  out->append("\",\"cat\":\"");
  AppendJsonEscaped(out, event.cat != nullptr ? event.cat : "?");
  out->append("\",\"ph\":\"");
  out->push_back(event.ph);
  out->append("\"");
  std::snprintf(buffer, sizeof(buffer), ",\"ts\":%.3f", event.ts_us);
  out->append(buffer);
  if (event.ph == 'X') {
    std::snprintf(buffer, sizeof(buffer), ",\"dur\":%.3f", event.dur_us);
    out->append(buffer);
  }
  if (event.ph == 'i') out->append(",\"s\":\"t\"");
  std::snprintf(buffer, sizeof(buffer), ",\"pid\":%d,\"tid\":%d",
                sim ? 2 : 1, sim ? event.lane : event.tid);
  out->append(buffer);
  if (event.num_args > 0 || event.flow_id != 0) {
    out->append(",\"args\":{");
    for (uint32_t i = 0; i < event.num_args; ++i) {
      if (i > 0) out->push_back(',');
      out->push_back('"');
      AppendJsonEscaped(out, event.args[i].key != nullptr ? event.args[i].key
                                                      : "?");
      std::snprintf(buffer, sizeof(buffer), "\":%.6g", event.args[i].value);
      out->append(buffer);
    }
    if (event.flow_id != 0) {
      if (event.num_args > 0) out->push_back(',');
      std::snprintf(buffer, sizeof(buffer), "\"rid\":%llu",
                    static_cast<unsigned long long>(event.flow_id));
      out->append(buffer);
    }
    out->push_back('}');
  }
  out->append("},\n");
}

/// Chrome flow event ('s' start / 't' step) binding the enclosing 'B' slice
/// into the per-request flow: same track and timestamp as the slice it
/// annotates, `id` = the request id.
void AppendFlowEvent(std::string* out, const TraceEvent& event, char ph) {
  char buffer[96];
  out->append("{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"");
  out->push_back(ph);
  out->append("\"");
  std::snprintf(buffer, sizeof(buffer), ",\"ts\":%.3f", event.ts_us);
  out->append(buffer);
  std::snprintf(buffer, sizeof(buffer), ",\"pid\":1,\"tid\":%d", event.tid);
  out->append(buffer);
  std::snprintf(buffer, sizeof(buffer), ",\"id\":%llu",
                static_cast<unsigned long long>(event.flow_id));
  out->append(buffer);
  if (ph != 's') out->append(",\"bp\":\"e\"");
  out->append("},\n");
}

void AppendMetadata(std::string* out, const char* what, int pid, int tid,
                    const std::string& name) {
  char buffer[64];
  out->append("{\"name\":\"");
  out->append(what);
  std::snprintf(buffer, sizeof(buffer), "\",\"ph\":\"M\",\"pid\":%d", pid);
  out->append(buffer);
  if (tid >= 0) {
    std::snprintf(buffer, sizeof(buffer), ",\"tid\":%d", tid);
    out->append(buffer);
  }
  out->append(",\"args\":{\"name\":\"");
  AppendJsonEscaped(out, name.c_str());
  out->append("\"}},\n");
}

}  // namespace

namespace internal {

template <typename Event>
std::shared_ptr<EventRing<Event>> RegisterThreadRing() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  if (t_tid == 0) t_tid = registry.next_tid++;
  auto ring =
      std::make_shared<EventRing<Event>>(t_tid, registry.ring_capacity);
  std::get<Rings<Event>>(registry.rings).push_back(ring);
  return ring;
}

template <typename Event>
EventSnapshot<Event> CollectRings(const char* what) {
  EventSnapshot<Event> snapshot;
  VisitRings<Event>(what, [&snapshot](const EventRing<Event>& ring) {
    ring.CollectInto(&snapshot);
  });
  return snapshot;
}

template <typename Event>
void ResetRings(const char* what) {
  VisitRings<Event>(what, [](EventRing<Event>& ring) { ring.Reset(); });
}

template std::shared_ptr<EventRing<TraceEvent>> RegisterThreadRing();
template std::shared_ptr<EventRing<JournalEvent>> RegisterThreadRing();
template TraceSnapshot CollectRings<TraceEvent>(const char*);
template JournalSnapshot CollectRings<JournalEvent>(const char*);
template void ResetRings<TraceEvent>(const char*);
template void ResetRings<JournalEvent>(const char*);

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out->append(buffer);
    } else {
      out->push_back(c);
    }
  }
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "w");  // memphis-lint: allow(raw-io) -- obs export, not durable-tier data
  if (file == nullptr) return false;
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), file);  // memphis-lint: allow(raw-io) -- obs export, not durable-tier data
  const bool ok = written == contents.size() && std::fclose(file) == 0;
  if (written != contents.size()) std::fclose(file);
  return ok;
}

}  // namespace internal

void EnableTracing(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void SetEventRingCapacity(size_t capacity) {
  size_t rounded = 1;
  while (rounded < capacity) rounded <<= 1;
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.ring_capacity = std::max<size_t>(8, rounded);
}

double TraceNowUs() {
  Registry& registry = GetRegistry();
#if MEMPHIS_OBS_TSC
  if (registry.us_per_tick > 0.0) {
    return static_cast<double>(__rdtsc() - registry.tsc_epoch) *
           registry.us_per_tick;
  }
#endif
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - registry.epoch)
      .count();
}

const char* Intern(const std::string& s) {
  // Per-thread front cache: emission sites intern the same few names (one
  // per opcode / tenant / RDD) thousands of times, and taking the registry
  // mutex each time serializes the worker pool. The registry still owns the
  // storage, so cached pointers stay valid for the process lifetime.
  thread_local std::unordered_map<std::string, const char*> cache;
  auto it = cache.find(s);
  if (it != cache.end()) return it->second;
  Registry& registry = GetRegistry();
  const char* interned;
  {
    MutexLock lock(registry.mu);
    interned = registry.interned.insert(s).first->c_str();
  }
  cache.emplace(s, interned);
  return interned;
}

void EmitBegin(const char* cat, const char* name, uint32_t num_args,
               const TraceArg* args) {
  EmitBeginFlow(cat, name, 0, num_args, args);
}

void EmitBeginFlow(const char* cat, const char* name, uint64_t flow_id,
                   uint32_t num_args, const TraceArg* args) {
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ph = 'B';
  event.ts_us = TraceNowUs();
  event.flow_id = flow_id;
  FillArgs(&event, num_args, args);
  internal::ThreadRing<TraceEvent>().Push(event);
}

void EmitEnd(const char* cat, const char* name) {
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ph = 'E';
  event.ts_us = TraceNowUs();
  internal::ThreadRing<TraceEvent>().Push(event);
}

void EmitInstant(const char* cat, const char* name, uint32_t num_args,
                 const TraceArg* args) {
  EmitInstantFlow(cat, name, 0, num_args, args);
}

void EmitInstantFlow(const char* cat, const char* name, uint64_t flow_id,
                     uint32_t num_args, const TraceArg* args) {
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ph = 'i';
  event.ts_us = TraceNowUs();
  event.flow_id = flow_id;
  FillArgs(&event, num_args, args);
  internal::ThreadRing<TraceEvent>().Push(event);
}

void EmitSimSpan(int lane, const char* name, double start_s, double dur_s) {
  TraceEvent event;
  event.name = name;
  event.cat = "sim";
  event.ph = 'X';
  event.lane = lane;
  event.ts_us = start_s * 1e6;
  event.dur_us = dur_s * 1e6;
  internal::ThreadRing<TraceEvent>().Push(event);
}

int RegisterSimLane(const std::string& name) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.lane_names.push_back(name);
  return static_cast<int>(registry.lane_names.size() - 1);
}

TraceSnapshot CollectTrace() {
  return internal::CollectRings<TraceEvent>("CollectTrace");
}

void ResetTrace() { internal::ResetRings<TraceEvent>("ResetTrace"); }

TraceSnapshot CollectTraceForCrash() {
  return internal::CollectRings<TraceEvent>(nullptr);
}

int64_t QuiescenceViolations() {
  return g_quiescence_violations.load(std::memory_order_relaxed);
}

void SetQuiescenceAbortForTest(bool abort_on_violation) {
  g_quiescence_abort.store(abort_on_violation, std::memory_order_relaxed);
}

void SetEmissionPauseHookForTest(void (*hook)()) {
  internal::g_emission_pause_hook.store(hook, std::memory_order_release);
}

bool WriteChromeTrace(const std::string& path) {
  TraceSnapshot snapshot = CollectTrace();
  // Stable order: by track then timestamp, so per-track streams are
  // contiguous and the B/E repair below is a linear scan.
  std::stable_sort(snapshot.events.begin(), snapshot.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     const int track_a = a.lane >= 0 ? a.lane : -1 - a.tid;
                     const int track_b = b.lane >= 0 ? b.lane : -1 - b.tid;
                     if (track_a != track_b) return track_a < track_b;
                     return a.ts_us < b.ts_us;
                   });

  std::string out;
  out.reserve(snapshot.events.size() * 96 + 4096);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  AppendMetadata(&out, "process_name", 1, -1, "wall-clock");
  AppendMetadata(&out, "process_name", 2, -1, "simulated-time");
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mu);
    for (size_t lane = 0; lane < registry.lane_names.size(); ++lane) {
      AppendMetadata(&out, "thread_name", 2, static_cast<int>(lane),
                     registry.lane_names[lane]);
    }
  }

  // Wrap-around repair over the track-contiguous stream: per wall track,
  // drop 'E's with no matching open 'B' and close any 'B' still open when
  // the track's stream ends, keeping timestamps monotone within the track.
  std::vector<TraceEvent> repaired;
  repaired.reserve(snapshot.events.size());
  std::vector<TraceEvent> open_spans;  // Current wall track's B stack.
  bool in_wall_track = false;
  int current_tid = 0;
  double track_last_ts = 0.0;
  auto close_track = [&] {
    while (!open_spans.empty()) {
      TraceEvent end = open_spans.back();
      open_spans.pop_back();
      end.ph = 'E';
      end.num_args = 0;
      end.ts_us = track_last_ts = std::max(track_last_ts, end.ts_us);
      repaired.push_back(end);
    }
    in_wall_track = false;
  };

  for (const TraceEvent& event : snapshot.events) {
    if (event.lane >= 0) {
      if (in_wall_track) close_track();
      repaired.push_back(event);
      continue;
    }
    if (in_wall_track && event.tid != current_tid) close_track();
    if (!in_wall_track) {
      in_wall_track = true;
      current_tid = event.tid;
      track_last_ts = event.ts_us;
    }
    track_last_ts = std::max(track_last_ts, event.ts_us);
    if (event.ph == 'B') {
      open_spans.push_back(event);
    } else if (event.ph == 'E') {
      if (open_spans.empty()) continue;  // Orphan from ring wrap: drop.
      open_spans.pop_back();
    }
    repaired.push_back(event);
  }
  if (in_wall_track) close_track();

  // Per-request flow linkage: the earliest 'B' span carrying each request id
  // starts the flow ('s'); every later same-id 'B' is a step ('t') bound to
  // its enclosing slice, so Perfetto draws submit -> request -> run arrows
  // across threads.
  std::unordered_map<uint64_t, size_t> flow_start;
  for (size_t i = 0; i < repaired.size(); ++i) {
    const TraceEvent& event = repaired[i];
    if (event.ph != 'B' || event.flow_id == 0 || event.lane >= 0) continue;
    auto [it, inserted] = flow_start.emplace(event.flow_id, i);
    if (!inserted && event.ts_us < repaired[it->second].ts_us) it->second = i;
  }
  for (size_t i = 0; i < repaired.size(); ++i) {
    const TraceEvent& event = repaired[i];
    AppendEvent(&out, event);
    if (event.ph == 'B' && event.flow_id != 0 && event.lane < 0) {
      AppendFlowEvent(&out, event,
                      flow_start[event.flow_id] == i ? 's' : 't');
    }
  }

  // Trailing dummy instant avoids a dangling comma without tracking state.
  out.append("{\"name\":\"trace-export\",\"cat\":\"obs\",\"ph\":\"i\","
             "\"s\":\"g\",\"ts\":0,\"pid\":1,\"tid\":0}\n]}\n");

  return internal::WriteTextFile(path, out);
}

}  // namespace memphis::obs
