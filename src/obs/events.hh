/**
 * @file
 * Structured JSONL run-event log for fleet observability (DESIGN.md
 * section 14): one JSON object per line in `events.jsonl`, recording
 * the lifecycle of a sweep (start/resume/finish/interrupted) and how
 * each of its points ended (complete/replay/interrupted).
 *
 * Durability is the sweep journal's: both write through LineFile
 * (common/line_file.hh), one write(2) of one '\n'-terminated line per
 * record to an O_APPEND file, so a crash can lose at most the trailing
 * partial line. On reopen the torn tail gets its '\n'; the fragment
 * then fails to parse and load() skips it, exactly like journal replay.
 */

#ifndef PADC_OBS_EVENTS_HH
#define PADC_OBS_EVENTS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/line_file.hh"

namespace padc::obs
{

/** Line schema tag each event record carries. */
inline constexpr char kEventSchema[] = "padc-run-event-v1";

/** The event log's file name inside a run's --out directory. */
inline constexpr char kEventsFileName[] = "events.jsonl";

/**
 * One run event. `point` is -1 for sweep events. Timestamps are
 * steady-clock milliseconds — monotonic and immune to wall-clock
 * steps, comparable only within one process run.
 */
struct Event
{
    std::string type;       ///< e.g. "sweep_start", "point_complete"
    std::uint64_t t_ms = 0; ///< steady-clock timestamp, milliseconds
    std::int64_t point = -1; ///< sweep point index, -1 if n/a
    std::uint64_t attempt = 0;
    std::string detail; ///< free-form: fate, status, experiment name
};

/**
 * Append-only JSONL event sink. Thread-safe: record() serializes under
 * a mutex and issues one write(2) per event.
 */
class EventLog
{
  public:
    /**
     * Open (creating if needed) @p path for appending, repairing a
     * torn trailing line left by a crash. Check ok() afterwards.
     */
    explicit EventLog(const std::string &path) : file_(path) {}

    bool ok() const { return file_.ok(); }

    /** Why the open failed; empty while ok(). */
    std::string
    error() const
    {
        return ok() ? std::string() : "EventLog: " + file_.error();
    }

    /** Append one event; no-op (returns false) after an I/O error. */
    bool record(const Event &event);

    /**
     * Read every parseable event line of @p path in file order,
     * skipping torn or malformed lines (the journal-replay contract).
     * @return false only when the file cannot be read at all.
     */
    static bool load(const std::string &path, std::vector<Event> *out,
                     std::string *error = nullptr);

  private:
    LineFile file_;
    std::mutex mutex_;
};

/** Serialize one event as its JSONL line (no trailing newline). */
std::string formatEvent(const Event &event);

} // namespace padc::obs

#endif // PADC_OBS_EVENTS_HH
