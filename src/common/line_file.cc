#include "common/line_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace padc
{

namespace
{

/** Whether @p path is non-empty and its last byte is not '\n'. */
bool
hasTornTail(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr)
        return false;
    const bool torn =
        std::fseek(in, -1, SEEK_END) == 0 && std::fgetc(in) != '\n';
    std::fclose(in);
    return torn;
}

} // namespace

LineFile::LineFile(const std::string &path)
{
    const bool torn = hasTornTail(path);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        error_ = "cannot open '" + path + "' for appending: " +
                 std::strerror(errno);
        return;
    }
    if (torn) {
        const char nl = '\n';
        while (::write(fd_, &nl, 1) < 0 && errno == EINTR) {
        }
    }
}

LineFile::~LineFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineFile::append(const std::string &line)
{
    if (fd_ < 0)
        return false;
    const std::string text = line + '\n';
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd_, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineFile::sync()
{
    if (fd_ >= 0)
        ::fsync(fd_);
}

bool
LineFile::forEachLine(const std::string &path,
                      const std::function<void(const std::string &)> &visit,
                      std::string *error)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
        if (error != nullptr)
            *error = "cannot read '" + path + "': " + std::strerror(errno);
        return false;
    }
    char *buffer = nullptr;
    std::size_t capacity = 0;
    ssize_t n = 0;
    while ((n = ::getline(&buffer, &capacity, in)) > 0) {
        if (buffer[n - 1] != '\n')
            break; // torn tail: the last line, unterminated
        visit(std::string(buffer, static_cast<std::size_t>(n - 1)));
    }
    std::free(buffer);
    std::fclose(in);
    return true;
}

} // namespace padc
