/**
 * @file
 * The `padc trace` subcommand family -- the trace-corpus toolchain:
 *
 *   padc trace capture --profile NAME --out DIR --ops N
 *                      [--core N] [--seed N] [--name NAME]
 *                      [--block-ops N]
 *       Run the synthetic generator for a profile exactly as a mix
 *       placement would (same per-(core, seed) parameter salting) and
 *       record the stream to `DIR/NAME.trc` (PADCTRC2), upserting the
 *       corpus manifest. A captured trace replayed on the same core
 *       reproduces the generator run bit-identically as long as the
 *       run consumes no more than N operations.
 *
 *   padc trace convert --in FILE --format csv|champsim|trace
 *                      --out DIR --name NAME [--block-ops N]
 *       Normalize an external trace (text/CSV memtrace, ChampSim-style
 *       records) or re-block an existing PADCTRC2 file into the corpus,
 *       upserting the manifest.
 *
 *   padc trace info FILE...
 *       Print header/index facts (format, ops, blocks, bytes/op,
 *       checksum) without decoding payloads.
 *
 *   padc trace verify FILE... | --corpus DIR
 *       Fully decode and checksum-verify trace files, or every entry
 *       of a corpus manifest (including manifest-vs-file agreement).
 *
 * Exit codes follow the driver convention: 0 success, 1 operation
 * failed (I/O, corruption, import diagnostics), 2 usage error.
 */

#ifndef PADC_TRACE_TOOLS_HH
#define PADC_TRACE_TOOLS_HH

namespace padc::trace
{

/** Usage text for `padc trace` (appended to the driver's on demand). */
const char *traceToolUsage();

/**
 * Entry point for `padc trace ...`; expects the full argv of the
 * process (argv[1] == "trace").
 */
int traceToolMain(int argc, const char *const *argv);

} // namespace padc::trace

#endif // PADC_TRACE_TOOLS_HH
