/**
 * @file
 * Structured JSONL run-event log for fleet observability (DESIGN.md
 * section 14): one JSON object per line in `events.jsonl`, recording
 * the lifecycle of a sweep (start/resume/finish/interrupted) and how
 * each of its points ended (complete/replay/interrupted).
 *
 * Durability reuses the sweep journal's idiom (sim/journal.cc): the
 * file is opened O_APPEND and every record is a single write(2) of one
 * '\n'-terminated line, so a crash can lose at most the trailing
 * partial line. On reopen the constructor repairs a torn tail by
 * terminating it with '\n'; the torn fragment then fails to parse and
 * is skipped by load(), exactly like journal replay.
 */

#ifndef PADC_OBS_EVENTS_HH
#define PADC_OBS_EVENTS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

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
    explicit EventLog(const std::string &path);

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    ~EventLog();

    bool ok() const { return fd_ >= 0; }

    const std::string &error() const { return error_; }

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
    int fd_ = -1;
    std::string error_;
    std::mutex mutex_;
};

/** Serialize one event as its JSONL line (no trailing newline). */
std::string formatEvent(const Event &event);

} // namespace padc::obs

#endif // PADC_OBS_EVENTS_HH
