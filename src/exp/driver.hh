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
 * stdout is always the experiments' human-readable text. Every result
 * file lands in `--out`: each run's
 * `BENCH_<name>.json` (schema `padc-bench-result-v2`: config hash,
 * per-point status + metrics, wall time, sim-cycles/sec) and, when
 * asked for, its `<name>.trace.json` and `<name>.timeseries.csv`.
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
    };

    Command command = Command::Help;
    std::vector<std::string> selectors; ///< names / tags / globs, in order
    bool all = false;                   ///< run --all
    unsigned threads = 0;               ///< 0 = hardware concurrency
    std::string resume_path;            ///< empty = no journal
    std::optional<std::uint64_t> seed;  ///< --seed override
    std::string out_dir = ".";          ///< BENCH_<name>.json directory

    bool progress = false;       ///< --progress live sweep status

    bool timeseries = false;     ///< <out>/<name>.timeseries.csv
    bool trace = false;          ///< <out>/<name>.trace.json
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
 * Full driver entry point.
 * @return 0 on success, 1 when an experiment failed, 2 on usage
 *         errors (unknown command, flag, or experiment selector).
 */
int driverMain(int argc, const char *const *argv);

} // namespace padc::exp

#endif // PADC_EXP_DRIVER_HH
