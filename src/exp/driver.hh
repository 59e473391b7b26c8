/**
 * @file
 * The `padc` unified experiment driver.
 *
 * One binary replaces the per-figure bench binaries:
 *
 *   padc list                      enumerate registered experiments
 *   padc run fig09 fig16           run experiments by name
 *   padc run 'fig1*' overall       ... by glob or tag
 *   padc run --all                 ... all of them
 *
 * Every run writes a machine-readable `BENCH_<name>.json` (schema
 * `padc-bench-result-v1`: config hash, per-point status + metrics,
 * wall time, sim-cycles/sec) next to the human-readable text output;
 * `--format json|csv` swaps the stdout stream for the structured form.
 *
 * driverMain is a library function so the CLI is testable in-process;
 * bench/padc_main.cc is the two-line real main().
 */

#ifndef PADC_EXP_DRIVER_HH
#define PADC_EXP_DRIVER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace padc::exp
{

/** Parsed command line of the driver. */
struct DriverOptions
{
    enum class Command
    {
        Help,
        List,
        Run,
        Status,
    };

    enum class Format
    {
        Text,
        Json,
        Csv,
    };

    Command command = Command::Help;
    std::vector<std::string> selectors; ///< names / tags / globs, in order
    bool all = false;                   ///< run --all
    unsigned threads = 0;               ///< 0 = default pool size
    unsigned workers = 0;               ///< --workers subprocesses (0 = off)
    std::string resume_path;            ///< empty = no journal
    std::optional<std::uint64_t> seed;  ///< --seed override
    Format format = Format::Text;
    std::string out_dir = ".";          ///< BENCH_<name>.json directory
    std::string corpus_dir;             ///< --corpus trace-profile dir

    bool progress = false;       ///< --progress live sweep status
    std::string status_dir;      ///< `padc status <dir>` argument
    bool json = false;           ///< status --json: the raw snapshot

    bool timeseries = false;     ///< --timeseries[=PATH]
    bool trace = false;          ///< --trace[=PATH]
    std::string timeseries_path; ///< empty = <out>/<name>.timeseries.csv
    std::string trace_path;      ///< empty = <out>/<name>.trace.json
    std::uint64_t trace_limit = 1u << 20; ///< --trace-limit events kept
};

/**
 * Parse the driver's argv (argv[0] is the program name).
 * @return true on success; false with a one-line diagnostic in
 *         @p error otherwise.
 */
bool parseDriverArgs(int argc, const char *const *argv,
                     DriverOptions *out, std::string *error);

/**
 * Render one experiment's structured result as the
 * `padc-bench-result-v1` JSON document (the BENCH_<name>.json
 * contents).
 */
std::string resultJson(const ExperimentInfo &info,
                       const ExperimentResult &result);

/** The driver's usage text. */
std::string driverUsage();

/**
 * Full driver entry point.
 * @return 0 on success, 1 when an experiment failed, 2 on usage
 *         errors (unknown command, flag, or experiment selector).
 */
int driverMain(int argc, const char *const *argv);

} // namespace padc::exp

#endif // PADC_EXP_DRIVER_HH
