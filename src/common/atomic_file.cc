#include "common/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace padc
{

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp")
{
    file_ = std::fopen(tmp_path_.c_str(), "wb");
    if (file_ == nullptr) {
        failed_ = true;
        error_ = "cannot open '" + tmp_path_ + "' for writing: " +
                 std::strerror(errno);
    }
}

AtomicFile::~AtomicFile()
{
    if (!committed_)
        discard();
}

void
AtomicFile::fail(const std::string &message)
{
    failed_ = true;
    if (error_.empty())
        error_ = message;
}

void
AtomicFile::discard()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
    std::remove(tmp_path_.c_str());
}

bool
AtomicFile::write(const void *data, std::size_t size)
{
    if (!ok())
        return false;
    if (std::fwrite(data, 1, size, file_) != size) {
        fail("short write to '" + tmp_path_ + "' (disk full?)");
        return false;
    }
    return true;
}

bool
AtomicFile::commit()
{
    if (!ok()) {
        discard();
        return false;
    }
    // Buffered bytes can still fail at flush/close (delayed ENOSPC);
    // surface that instead of renaming a truncated temp into place.
    if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
        fail("flush of '" + tmp_path_ + "' failed");
        discard();
        return false;
    }
    if (std::fclose(file_) != 0) {
        file_ = nullptr;
        fail("close of '" + tmp_path_ + "' failed");
        discard();
        return false;
    }
    file_ = nullptr;
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
        fail("cannot rename '" + tmp_path_ + "' onto '" + path_ +
             "': " + std::strerror(errno));
        std::remove(tmp_path_.c_str());
        return false;
    }
    committed_ = true;
    return true;
}

} // namespace padc
