/**
 * @file
 * Crash-safe file writing: write to a `<path>.tmp` sibling, atomically
 * rename over the destination on a successful commit.
 *
 * An interrupted writer (crash, kill, disk full) therefore never leaves
 * a truncated file at the destination path that a later reader would
 * reject as corrupt; the worst case is a stale `.tmp` sibling, which
 * the next successful write replaces.
 */

#ifndef PADC_COMMON_ATOMIC_FILE_HH
#define PADC_COMMON_ATOMIC_FILE_HH

#include <cstdio>
#include <string>

namespace padc
{

/**
 * RAII temp-then-rename writer. All writes go to `<path>.tmp`;
 * commit() flushes, closes, and renames onto `<path>`. Destruction
 * without a successful commit removes the temp file.
 */
class AtomicFile
{
  public:
    /** Opens `<path>.tmp` for binary writing; check ok(). */
    explicit AtomicFile(std::string path);

    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** True while no operation has failed. */
    bool ok() const { return file_ != nullptr && !failed_; }

    /** Why ok() is false; empty otherwise. */
    const std::string &error() const { return error_; }

    /** The destination path (not the temp sibling). */
    const std::string &path() const { return path_; }

    /** Write @p size bytes; false (and ok() latches false) on failure. */
    bool write(const void *data, std::size_t size);

    /**
     * Flush, close, and rename the temp file onto the destination.
     * On any failure the temp file is removed and false returned with
     * a descriptive error(); the destination is never touched.
     */
    bool commit();

  private:
    void fail(const std::string &message);
    void discard();

    std::string path_;
    std::string tmp_path_;
    std::FILE *file_ = nullptr;
    bool failed_ = false;
    bool committed_ = false;
    std::string error_;
};

} // namespace padc

#endif // PADC_COMMON_ATOMIC_FILE_HH
