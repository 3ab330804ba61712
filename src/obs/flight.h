#ifndef MEMPHIS_OBS_FLIGHT_H_
#define MEMPHIS_OBS_FLIGHT_H_

#include <cstdint>
#include <string>

namespace memphis::obs {

/// Crash flight recorder (DESIGN.md §5h): when the process is about to die
/// for a *diagnosable* reason -- a lock-rank abort, a fuzz-detected
/// divergence, or a fatal signal -- dump the last-N trace events and the
/// journal tail to `memphis_flight_<pid>.json` in the configured directory,
/// so post-mortems of the kill-replay and serve-stress harnesses carry
/// their own evidence instead of requiring a re-run under tracing.
///
/// The dump path is best-effort by design: it drains the trace and journal
/// rings with the crash-path collectors (no quiescence assertion; other
/// threads may still be emitting) and, from a signal handler, calls
/// non-async-safe library code -- acceptable for a post-mortem artifact that
/// is the last thing the process does. A process-wide atomic latch serializes dumps and
/// breaks the recursion where dumping itself trips another violation.

/// Arms the recorder: remembers `dir` (created by the caller; "." works),
/// installs the sync-layer rank-violation hook, and registers fatal-signal
/// handlers (SIGSEGV, SIGABRT). Idempotent; last directory wins.
void EnableFlightRecorder(const std::string& dir);

/// Disarms the recorder and uninstalls the rank-violation hook (signal
/// handlers are left restored to default). Tests use this to clean up.
void DisableFlightRecorder();

bool FlightRecorderEnabled();

/// Number of trace/journal events kept in each tail of the dump.
inline constexpr int kFlightTailEvents = 256;

/// Writes `memphis_flight_<pid>.json` now, with `reason` recorded in the
/// header. Returns the path written, or an empty string when the recorder
/// is disabled, a dump is already in progress, or the write failed.
std::string DumpFlightRecord(const char* reason);

/// Total dumps successfully written by this process.
int64_t FlightDumpCount();

}  // namespace memphis::obs

#endif  // MEMPHIS_OBS_FLIGHT_H_
