/**
 * @file
 * Streaming trace replay: a core::TraceSource over an on-disk PADCTRC2
 * trace file that decodes block by block with bounded memory instead of
 * loading the whole file, loops at end-of-trace to preserve the
 * infinite-stream contract, and replays the exact same sequence again
 * after reset().
 *
 * A multi-gigabyte capture costs only one decoded block (~block_ops
 * operations) of resident memory. Like the codec in format.hh, it has
 * no caller outside tests/trace.
 */

#ifndef PADC_TRACE_STREAM_HH
#define PADC_TRACE_STREAM_HH

#include <string>
#include <vector>

#include "core/trace.hh"
#include "trace/format.hh"

namespace padc::trace
{

/**
 * A looping, block-streamed TraceSource over a recorded trace file.
 * Construction failure (missing file, bad header/index, empty trace)
 * is observable via ok(); per-block checksums are validated every time
 * a block is (re-)loaded.
 */
class StreamingFileTrace : public core::TraceSource
{
  public:
    explicit StreamingFileTrace(const std::string &path);

    /** True when the trace opened, validated, and holds operations. */
    bool ok() const { return ok_; }

    /** Why ok() is false, or the first mid-stream load failure. */
    const std::string &error() const { return error_; }

    /** Total recorded operations (one loop of the stream). */
    std::uint64_t size() const { return reader_.info().op_count; }

    /**
     * Next operation; wraps to the first block after the last. On a
     * mid-stream load failure (file mutated underneath the run) the
     * error latches into error() and a neutral op is returned --
     * TraceSource::next() must not fail.
     */
    core::TraceOp next() override;

    /** Restart the stream: identical sequence from the first op. */
    void reset() override;

  private:
    /** Load @p block into block_; latches error_ on failure. */
    bool loadBlock(std::uint64_t block);

    BlockReader reader_;
    std::vector<core::TraceOp> block_; ///< decoded current block
    std::size_t pos_ = 0;              ///< next op within block_
    std::uint64_t block_number_ = 0;   ///< index of block_
    bool ok_ = false;
    std::string error_;
};

} // namespace padc::trace

#endif // PADC_TRACE_STREAM_HH
