#include "obs/flight.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <vector>

#include "common/sync.h"
#include "obs/event_ring.h"
#include "obs/journal.h"

namespace memphis::obs {

namespace {

std::atomic<bool> g_enabled{false};
// Directory is published by pointer swap so the crash path never locks; the
// old string is leaked on re-arm (bounded: arming happens O(1) times).
std::atomic<const std::string*> g_dir{nullptr};
std::atomic<bool> g_dump_in_progress{false};
std::atomic<int64_t> g_dumps{0};

void RankViolationTrampoline(const char* what) { DumpFlightRecord(what); }

void FatalSignalHandler(int sig) {
  std::signal(sig, SIG_DFL);
  DumpFlightRecord(sig == SIGSEGV ? "fatal-signal-segv"
                                  : "fatal-signal-abrt");
  std::raise(sig);
}

}  // namespace

void EnableFlightRecorder(const std::string& dir) {
  g_dir.store(new std::string(dir.empty() ? "." : dir),
              std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
  SetRankViolationHook(&RankViolationTrampoline);
  std::signal(SIGSEGV, &FatalSignalHandler);
  std::signal(SIGABRT, &FatalSignalHandler);
}

void DisableFlightRecorder() {
  g_enabled.store(false, std::memory_order_release);
  SetRankViolationHook(nullptr);
  std::signal(SIGSEGV, SIG_DFL);
  std::signal(SIGABRT, SIG_DFL);
}

bool FlightRecorderEnabled() {
  return g_enabled.load(std::memory_order_acquire);
}

int64_t FlightDumpCount() { return g_dumps.load(std::memory_order_relaxed); }

std::string DumpFlightRecord(const char* reason) {
  if (!g_enabled.load(std::memory_order_acquire)) return "";
  // One dump at a time; also breaks recursion if draining trips another
  // violation (the inner call lands here and bails).
  if (g_dump_in_progress.exchange(true, std::memory_order_acq_rel)) return "";

  // Crash-path collectors for both rings: the dump may run from the SIGABRT
  // a checked drain raised, and other threads may still be emitting.
  TraceSnapshot trace = CollectTraceForCrash();
  JournalSnapshot journal = CollectJournalForCrash();
  auto by_ts = [](const auto& a, const auto& b) { return a.ts_us < b.ts_us; };
  std::stable_sort(trace.events.begin(), trace.events.end(), by_ts);
  std::stable_sort(journal.events.begin(), journal.events.end(), by_ts);
  const size_t trace_from =
      trace.events.size() > kFlightTailEvents
          ? trace.events.size() - kFlightTailEvents
          : 0;
  const size_t journal_from =
      journal.events.size() > kFlightTailEvents
          ? journal.events.size() - kFlightTailEvents
          : 0;

  std::string out;
  out.reserve((trace.events.size() - trace_from) * 128 +
              (journal.events.size() - journal_from) * 160 + 512);
  char buffer[192];
  out.append("{\"memphis_flight\":1,\"reason\":\"");
  internal::AppendJsonEscaped(&out, reason != nullptr ? reason : "?");
  std::snprintf(buffer, sizeof(buffer),
                "\",\"pid\":%d,\"ts_us\":%.3f,"
                "\"trace_emitted\":%llu,\"trace_dropped\":%llu,"
                "\"journal_emitted\":%llu,\"journal_dropped\":%llu,\n",
                static_cast<int>(getpid()), TraceNowUs(),
                static_cast<unsigned long long>(trace.emitted),
                static_cast<unsigned long long>(trace.dropped),
                static_cast<unsigned long long>(journal.emitted),
                static_cast<unsigned long long>(journal.dropped));
  out.append(buffer);

  out.append("\"trace_tail\":[\n");
  for (size_t i = trace_from; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];
    out.append("{\"name\":\"");
    internal::AppendJsonEscaped(&out, event.name);
    out.append("\",\"cat\":\"");
    internal::AppendJsonEscaped(&out, event.cat);
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"ph\":\"%c\",\"ts\":%.3f,\"lane\":%d,\"tid\":%d,"
                  "\"rid\":%llu}",
                  event.ph, event.ts_us, event.lane, event.tid,
                  static_cast<unsigned long long>(event.flow_id));
    out.append(buffer);
    if (i + 1 < trace.events.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("],\n\"journal_tail\":[\n");
  for (size_t i = journal_from; i < journal.events.size(); ++i) {
    internal::AppendJournalEventJson(&out, journal.events[i]);
    if (i + 1 < journal.events.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("]}\n");

  const std::string* dir = g_dir.load(std::memory_order_acquire);
  std::string path = (dir != nullptr ? *dir : std::string(".")) +
                     "/memphis_flight_" +
                     std::to_string(static_cast<int>(getpid())) + ".json";
  const bool ok = internal::WriteTextFile(path, out);
  if (ok) g_dumps.fetch_add(1, std::memory_order_relaxed);
  g_dump_in_progress.store(false, std::memory_order_release);
  return ok ? path : "";
}

}  // namespace memphis::obs
