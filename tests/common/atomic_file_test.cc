/**
 * @file
 * AtomicFile unit tests: the temp-then-rename contract its writer, the
 * driver's BENCH files, relies on. An open failure names the path and
 * the reason, a commit leaves no `.tmp`, and neither a failed rename
 * nor an abandoned write leaves a `.tmp` or touches the destination.
 */

#include "common/atomic_file.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace padc
{
namespace
{

class AtomicFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("padc_atomic_file_test_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "out.txt").string();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string fileText() const
    {
        std::ifstream in(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(AtomicFileTest, OpenFailureReportsPathAndReason)
{
    const std::string path = (dir_ / "missing" / "out.txt").string();
    AtomicFile file(path);
    EXPECT_FALSE(file.ok());
    EXPECT_FALSE(file.write("x", 1));
    EXPECT_FALSE(file.commit());
    EXPECT_NE(file.error().find("cannot open '" + path + ".tmp'"),
              std::string::npos)
        << file.error();
    EXPECT_NE(file.error().find(std::strerror(ENOENT)), std::string::npos)
        << file.error();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(AtomicFileTest, CommitLeavesNoTmpSibling)
{
    {
        AtomicFile file(path_);
        ASSERT_TRUE(file.ok()) << file.error();
        EXPECT_TRUE(std::filesystem::exists(path_ + ".tmp"));
        EXPECT_TRUE(file.write("hello\n", 6));
        ASSERT_TRUE(file.commit()) << file.error();
    }
    EXPECT_EQ(fileText(), "hello\n");
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, FailedRenameRemovesTmpAndKeepsDestination)
{
    // The destination is a non-empty directory, so the final rename
    // cannot succeed: the commit must fail without leaving its temp
    // sibling behind or disturbing what already sits at the path.
    const std::string dest = (dir_ / "occupied").string();
    std::filesystem::create_directories(dest + "/inner");
    AtomicFile file(dest);
    ASSERT_TRUE(file.ok()) << file.error();
    EXPECT_TRUE(file.write("data", 4));
    EXPECT_FALSE(file.commit());
    EXPECT_NE(file.error().find("cannot rename"), std::string::npos)
        << file.error();
    EXPECT_FALSE(std::filesystem::exists(dest + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(dest + "/inner"));
}

TEST_F(AtomicFileTest, DestructionWithoutCommitRemovesTmp)
{
    {
        std::ofstream(path_) << "old";
    }
    {
        AtomicFile file(path_);
        ASSERT_TRUE(file.ok()) << file.error();
        EXPECT_TRUE(file.write("new", 3));
        EXPECT_TRUE(std::filesystem::exists(path_ + ".tmp"));
    }
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
    EXPECT_EQ(fileText(), "old");
}

} // namespace
} // namespace padc
