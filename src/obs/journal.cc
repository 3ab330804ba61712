#include "obs/journal.h"

#include <algorithm>
#include <cstdio>

#include "obs/event_ring.h"

namespace memphis::obs {

namespace internal {
std::atomic<bool> g_journal_enabled{false};
}  // namespace internal

const char* ToString(JournalKind kind) {
  switch (kind) {
    case JournalKind::kProbe: return "probe";
    case JournalKind::kHit: return "hit";
    case JournalKind::kMiss: return "miss";
    case JournalKind::kPut: return "put";
    case JournalKind::kEvict: return "evict";
    case JournalKind::kHarvest: return "harvest";
    case JournalKind::kPromote: return "promote";
    case JournalKind::kWarm: return "warm";
    case JournalKind::kShed: return "shed";
  }
  return "?";
}

const char* ToString(JournalTier tier) {
  switch (tier) {
    case JournalTier::kNone: return "none";
    case JournalTier::kHost: return "host";
    case JournalTier::kScalar: return "scalar";
    case JournalTier::kRdd: return "rdd";
    case JournalTier::kGpu: return "gpu";
    case JournalTier::kDisk: return "disk";
    case JournalTier::kStore: return "store";
  }
  return "?";
}

const char* ToString(JournalReason reason) {
  switch (reason) {
    case JournalReason::kNone: return "none";
    case JournalReason::kPlaceholder: return "placeholder";
    case JournalReason::kInvalidatedGpu: return "invalidated-gpu";
    case JournalReason::kAdmission: return "admission";
    case JournalReason::kQueueFull: return "queue-full";
    case JournalReason::kDeadline: return "deadline";
    case JournalReason::kOversize: return "oversize";
    case JournalReason::kQuota: return "quota";
    case JournalReason::kSessionLocal: return "session-local";
    case JournalReason::kShutdown: return "shutdown";
  }
  return "?";
}

void EnableJournal(bool enabled) {
  internal::g_journal_enabled.store(enabled, std::memory_order_relaxed);
}

void EmitJournal(JournalKind kind, JournalTier tier, JournalReason reason,
                 uint64_t key_hash, double cost, double bytes) {
  const RequestContext& request = CurrentRequest();
  JournalEvent event;
  event.rid = request.rid;
  event.key_hash = key_hash;
  event.ts_us = TraceNowUs();
  event.cost = cost;
  event.bytes = bytes;
  event.kind = kind;
  event.tier = tier;
  event.reason = reason;
  event.tenant = request.tenant;
  internal::ThreadRing<JournalEvent>().Push(event);
}

JournalSnapshot CollectJournal() {
  return internal::CollectRings<JournalEvent>("CollectJournal");
}

void ResetJournal() { internal::ResetRings<JournalEvent>("ResetJournal"); }

JournalSnapshot CollectJournalForCrash() {
  return internal::CollectRings<JournalEvent>(nullptr);
}

void internal::AppendJournalEventJson(std::string* out,
                                      const JournalEvent& event) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "{\"rid\":%llu,\"ts\":%.3f,\"kind\":\"%s\",\"tier\":\"%s\","
                "\"reason\":\"%s\",\"key\":\"%016llx\",\"cost\":%.6g,"
                "\"bytes\":%.6g,\"tid\":%d,\"tenant\":\"",
                static_cast<unsigned long long>(event.rid), event.ts_us,
                ToString(event.kind), ToString(event.tier),
                ToString(event.reason),
                static_cast<unsigned long long>(event.key_hash), event.cost,
                event.bytes, event.tid);
  out->append(buffer);
  AppendJsonEscaped(out, event.tenant);
  out->append("\"}");
}

bool WriteJournalJson(const std::string& path) {
  JournalSnapshot snapshot = CollectJournal();
  // Chronological order reads naturally in memphis_explain and diffs stably.
  std::stable_sort(snapshot.events.begin(), snapshot.events.end(),
                   [](const JournalEvent& a, const JournalEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::string out;
  out.reserve(snapshot.events.size() * 160 + 256);
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "{\"memphis_journal\":1,\"emitted\":%llu,\"dropped\":%llu,"
                "\"events\":[\n",
                static_cast<unsigned long long>(snapshot.emitted),
                static_cast<unsigned long long>(snapshot.dropped));
  out.append(buffer);
  for (size_t i = 0; i < snapshot.events.size(); ++i) {
    internal::AppendJournalEventJson(&out, snapshot.events[i]);
    if (i + 1 < snapshot.events.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("]}\n");
  return internal::WriteTextFile(path, out);
}

}  // namespace memphis::obs
