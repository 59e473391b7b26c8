/**
 * @file
 * Append-only file of '\n'-terminated lines: the durability idiom of
 * the sweep journal (sim/journal.hh).
 *
 * The file is opened O_APPEND and every line goes out in ONE write(2),
 * so concurrent writers interleave whole lines only, and a process
 * killed mid-write can tear only its own last line. Reading visits
 * '\n'-terminated lines only, so a torn tail is never seen. Opening
 * for append terminates a torn tail first; otherwise the next line
 * would merge into it and both would be unparseable.
 */

#ifndef PADC_COMMON_LINE_FILE_HH
#define PADC_COMMON_LINE_FILE_HH

#include <functional>
#include <string>

namespace padc
{

/** RAII appender of whole lines to one file; see the file comment. */
class LineFile
{
  public:
    /**
     * Open (creating if absent) @p path for appending and terminate a
     * torn last line. Check ok().
     */
    explicit LineFile(const std::string &path);

    ~LineFile();

    LineFile(const LineFile &) = delete;
    LineFile &operator=(const LineFile &) = delete;

    bool ok() const { return fd_ >= 0; }

    /** Why the open failed (path and reason); empty while ok(). */
    const std::string &error() const { return error_; }

    /**
     * Append @p line (no '\n' of its own) and a '\n' in one write(2),
     * retrying EINTR. false on any other error or when !ok().
     */
    bool append(const std::string &line);

    /** fsync(2) the file, for a line that must survive a machine crash. */
    void sync();

    /**
     * Call @p visit with each '\n'-terminated line of @p path, in file
     * order and without its '\n'. An unterminated last line (an append
     * a killed process left torn) is skipped.
     * @return false, with the path and reason in @p error, only when
     *         the file cannot be opened.
     */
    static bool forEachLine(const std::string &path,
                            const std::function<void(const std::string &)>
                                &visit,
                            std::string *error = nullptr);

  private:
    int fd_ = -1;
    std::string error_;
};

} // namespace padc

#endif // PADC_COMMON_LINE_FILE_HH
