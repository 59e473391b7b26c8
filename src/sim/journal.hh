/**
 * @file
 * Sweep checkpoint/resume journal.
 *
 * Long figure sweeps (hundreds of (policy x mix) points, minutes of
 * wall-clock) die completely when the process is killed halfway. The
 * journal makes them resumable: every completed point is appended to a
 * text file keyed by a 64-bit hash of its full configuration (system
 * config, mix, run options and seeds), and a rerun pointed at the same
 * journal replays recorded points instead of recomputing them.
 *
 * One line is "padcj3 <kind> <key> <record>": kind 'e' (evaluateSweep)
 * or 'r' (runSweep), the key in hex, and the result as one line of the
 * worker wire's JSON (wire::encodeRecord). Lines of any other format,
 * older journals included, load as misses, so those points rerun.
 *
 * Guarantees:
 *  - Replayed results are bit-identical to recomputed ones: doubles are
 *    written as the shortest decimal that parses back to the same bits.
 *    A non-finite double (written as null) does not decode, so its
 *    line is a miss and the point reruns.
 *  - A journal truncated mid-append (process killed during a write)
 *    loses at most the final partial line; loading tolerates and
 *    discards it, and opening for append first repairs the missing
 *    newline so the next record cannot merge into the torn tail.
 *  - Records are written with ONE write(2) each to an O_APPEND fd, so
 *    concurrent writers -- threads in this process (serialized by a
 *    mutex) or entirely separate processes sharing the journal file --
 *    interleave whole lines only, never interleaved bytes.
 *  - Durability is flush-to-kernel by default (enough to survive the
 *    process being killed); set PADC_JOURNAL_FSYNC=1 to fsync(2) after
 *    every record when the journal must also survive a machine crash.
 *
 * The key hashes every row of SweepPoint's field table, recursively
 * (common/fields.hh): the whole SystemConfig but its two execution
 * details, the mix and the RunOptions. A config field added without a
 * table row does not compile, so it cannot be left out of the key.
 *
 * The `padc` driver opens one journal per run for its --resume flag
 * and hands it to every experiment; the library never touches the
 * filesystem unless asked.
 */

#ifndef PADC_SIM_JOURNAL_HH
#define PADC_SIM_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "sim/experiment.hh"

namespace padc::sim
{

/**
 * Deterministic 64-bit key of one sweep point: FNV-1a over every leaf
 * of its field table in table order. Bools, enums and integers hash as
 * u64, doubles as their bits, arrays element by element, vectors and
 * strings with their length first.
 */
std::uint64_t sweepPointKey(const SweepPoint &point);

/**
 * Append-only journal of completed sweep points; see file comment.
 */
class SweepJournal
{
  public:
    /**
     * Open (creating if absent) the journal at @p path and load every
     * complete, well-formed entry already recorded there.
     * @throws std::runtime_error when the file cannot be created.
     */
    explicit SweepJournal(std::string path);

    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    const std::string &path() const { return path_; }

    /** Entries recovered when the journal was opened. */
    std::size_t loadedEntries() const { return loaded_; }

    /** Lookups served from the journal since it was opened. */
    std::size_t hits() const;

    /**
     * Replay the recorded evaluateSweep result for @p key into @p out.
     * @return true on a hit (out fully populated, bit-identical to the
     *         run that recorded it).
     */
    bool lookup(std::uint64_t key, Result<MixEvaluation> *out);

    /** Replay the recorded runSweep result for @p key. */
    bool lookup(std::uint64_t key, Result<RunMetrics> *out);

    /**
     * True when an evaluateSweep entry for @p key is recorded (used to
     * skip alone-IPC prewarm work for already-completed points; does
     * not count as a hit).
     */
    bool containsEval(std::uint64_t key) const;

    /** Record a completed evaluateSweep point (append + flush). */
    void record(std::uint64_t key, const Result<MixEvaluation> &result);

    /** Record a completed runSweep point (append + flush). */
    void record(std::uint64_t key, const Result<RunMetrics> &result);

  private:
    using EntryKey = std::pair<char, std::uint64_t>; ///< (kind, hash)

    bool lookupLine(char kind, std::uint64_t key, std::string *line);
    void recordLine(char kind, std::uint64_t key, const std::string &body);

    mutable std::mutex mutex_;
    std::string path_;
    std::map<EntryKey, std::string> entries_; ///< payload (line body)
    std::size_t loaded_ = 0;
    std::size_t hits_ = 0;
    int append_fd_ = -1;      ///< O_APPEND; one write(2) per record
    bool fsync_each_ = false; ///< PADC_JOURNAL_FSYNC policy
};

} // namespace padc::sim

#endif // PADC_SIM_JOURNAL_HH
