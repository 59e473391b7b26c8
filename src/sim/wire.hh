/**
 * @file
 * Wire protocol of the process-sharded sweep executor.
 *
 * The supervisor (ProcessPool) and its `padc worker` subprocesses
 * exchange length-prefixed JSON frames over pipes:
 *
 *   frame    := <u32 little-endian payload length> <payload bytes>
 *   payload  := one JSON document (exp::JsonWriter / exp::parseJson)
 *
 * Three payload shapes exist: the worker's hello (handshake), a task
 * (one SweepPoint plus, for evaluate tasks, the alone-run baseline the
 * worker's AloneIpcCache needs), and a result (the point's outcome and
 * full metrics, plus the worker's self-report).
 *
 * Points, results and reports are written and read by one generic
 * codec driven by the structs' field tables (common/fields.hh): a
 * tabled struct is an object with one member per row, named by the
 * row; vectors and arrays are JSON arrays. The sweep journal stores
 * the same result JSON on one line (encodeRecord).
 *
 * Encoding rules:
 *  - doubles are plain JSON numbers; exp::jsonNumber emits the shortest
 *    decimal that strtod()s back to the same bits, so replaying a
 *    worker's result is bit-identical to computing it in-process. A
 *    non-finite double is written as null, which does not decode.
 *  - 64-bit integers are decimal STRINGS ("123"), never JSON numbers:
 *    the parser stores numbers as double, which silently loses
 *    precision past 2^53 (seeds and cycle caps can exceed that).
 *  - enums travel as their underlying integer value; both ends run the
 *    same binary (the supervisor execs /proc/self/exe), so the values
 *    always agree.
 *  - decoding is strict: a missing or mistyped member, an integer out
 *    of its field's range, a vector longer than kMaxCores or an
 *    unknown point status fails, and the error names the member's
 *    dotted path (for example "point.config.sched.accuracy.interval",
 *    or "cores[2]" for an element).
 *
 * The deterministic fault-injection hook lives here too:
 * PADC_FAULT_INJECT=crash:<every>|hang:<every>|exit:<code>:<every>
 * fires on every <every>-th task index but only on attempt 0, so a
 * retried point always succeeds and the merged sweep stays bit-
 * identical to a fault-free run; poison:<index> fires on every attempt
 * of one index, which is what drives a point into quarantine.
 */

#ifndef PADC_SIM_WIRE_HH
#define PADC_SIM_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "exp/json.hh"
#include "sim/experiment.hh"

namespace padc::sim::wire
{

/** Hard upper bound on one frame's payload (corruption guard). */
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

// --- frame I/O --------------------------------------------------------

/**
 * Write one length-prefixed frame, retrying short writes and EINTR.
 * @return false when the peer is gone (EPIPE/other write error).
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Blocking read of one complete frame.
 * @return false on EOF, read error, or an oversized length prefix.
 */
bool readFrame(int fd, std::string *payload);

/**
 * Incremental frame reassembly for the supervisor's non-blocking
 * event loop: feed() whatever poll() delivered, then drain complete
 * frames with next().
 */
class FrameBuffer
{
  public:
    /** Append @p n raw bytes from the pipe. */
    void feed(const char *data, std::size_t n);

    /**
     * Extract the next complete frame payload.
     * @return true when a frame was extracted into @p payload.
     */
    bool next(std::string *payload);

    /** A length prefix exceeded kMaxFramePayload (protocol corrupt). */
    bool corrupt() const { return corrupt_; }

  private:
    std::string pending_;
    bool corrupt_ = false;
};

// --- task / result payloads -------------------------------------------

/** One supervisor->worker task. */
struct WireTask
{
    enum class Kind : std::uint8_t
    {
        Run,  ///< sim::runMix the point
        Eval, ///< sim::evaluateMix the point (needs the alone baseline)
    };

    Kind kind = Kind::Run;
    std::uint64_t index = 0;   ///< sweep-point index (fault schedule key)
    std::uint32_t attempt = 0; ///< 0 on first dispatch, +1 per retry
    SweepPoint point;

    SystemConfig alone_base;    ///< Eval only: AloneIpcCache base config
    RunOptions alone_options;   ///< Eval only: AloneIpcCache options
};

/**
 * Per-task worker self-report, the member "worker" of every result
 * frame. Values are per-THIS-task deltas, not worker-lifetime totals,
 * so the supervisor aggregates without delta bookkeeping across
 * retries/respawns.
 */
struct WireWorkerReport
{
    std::uint64_t pid = 0;      ///< reporting worker process
    std::uint64_t tasks = 0;    ///< tasks this worker has completed
    std::uint64_t sim_cycles = 0; ///< simulated cycles of this task
    double exec_seconds = 0.0;  ///< wall seconds executing this task
};

/** WireWorkerReport's field table; see common/fields.hh. */
template <fields::Of<WireWorkerReport> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("pid", s.pid);
    v("tasks", s.tasks);
    v("sim_cycles", s.sim_cycles);
    v("exec_seconds", s.exec_seconds);
}
static_assert(fields::complete<WireWorkerReport>());

/** One worker->supervisor result (or the initial hello when hello). */
struct WireResult
{
    bool hello = false; ///< handshake frame; all other members unset
    WireTask::Kind kind = WireTask::Kind::Run;
    std::uint64_t index = 0;
    Result<RunMetrics> run;      ///< Kind::Run payload
    Result<MixEvaluation> eval;  ///< Kind::Eval payload
    WireWorkerReport worker;     ///< the worker's self-report
};

std::string encodeHello();
std::string encodeTask(const WireTask &task);
std::string encodeResult(const WireResult &result);

/** @return false with a diagnostic in @p error on malformed payloads. */
bool decodeTask(const std::string &payload, WireTask *out,
                std::string *error);
bool decodeResult(const std::string &payload, WireResult *out,
                  std::string *error);

// --- table-driven values ---------------------------------------------

/** Append the point as a JSON object member @p key of @p writer. */
void encodePoint(exp::JsonWriter &writer, const std::string &key,
                 const SweepPoint &point);

/** Decode a point encoded by encodePoint. */
bool decodePoint(const exp::JsonValue &value, SweepPoint *out,
                 std::string *error);

/**
 * A sweep result (T is RunMetrics or MixEvaluation) as one line of
 * JSON: the sweep journal's record body, shaped like the "result"
 * member of a result frame.
 */
template <typename T>
std::string encodeRecord(const Result<T> &result);

/** Decode a record written by encodeRecord. */
template <typename T>
bool decodeRecord(const std::string &text, Result<T> *out,
                  std::string *error);

// --- fault injection --------------------------------------------------

/** Parsed PADC_FAULT_INJECT schedule. */
struct FaultSpec
{
    enum class Mode : std::uint8_t
    {
        None,   ///< no faults
        Crash,  ///< raise(SIGKILL) before running the task
        Hang,   ///< block until the supervisor disappears or kills us
        Exit,   ///< _exit(code) before running the task
        Poison, ///< crash on ONE index, every attempt (quarantine path)
    };

    Mode mode = Mode::None;
    std::uint64_t every = 0;  ///< crash/hang/exit: period over indices
    int exit_code = 1;        ///< exit mode only
    std::uint64_t poison_index = 0; ///< poison mode only

    bool enabled() const { return mode != Mode::None; }
};

/**
 * Parse a PADC_FAULT_INJECT value. nullptr/empty parses as None;
 * malformed input warns on stderr once per call and parses as None
 * rather than guess.
 */
FaultSpec parseFaultSpec(const char *text);

/** The process's PADC_FAULT_INJECT schedule. */
FaultSpec envFaultSpec();

/** Does the schedule fire for this (task index, attempt)? */
bool faultFires(const FaultSpec &spec, std::uint64_t index,
                std::uint32_t attempt);

} // namespace padc::sim::wire

#endif // PADC_SIM_WIRE_HH
