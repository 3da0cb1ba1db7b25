/**
 * @file
 * Per-process scratch files for the test suites.
 *
 * gtest_discover_tests runs every test in its own process, and
 * `ctest -j` runs those processes side by side. A fixed file name
 * under the shared ::testing::TempDir() is therefore shared by every
 * process that writes it: one test rewrites a shard while another
 * has the same file mapped, and the reader dies with SIGBUS or sees
 * a truncated shard. tempPath() puts every name in a directory
 * private to the process (mkdtemp under TempDir(), removed at exit),
 * and writeThenRename() publishes a file under its final name only
 * once it is complete.
 */

#ifndef PSTAT_TESTS_TEST_UTIL_HH
#define PSTAT_TESTS_TEST_UTIL_HH

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include <stdlib.h>

#include <gtest/gtest.h>

namespace pstat::test
{

/** A mkdtemp directory that is removed, with its contents, at exit. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        std::string base = ::testing::TempDir();
        if (!base.empty() && base.back() != '/')
            base += '/';
        std::string pattern = base + "pstat_test_XXXXXX";
        if (::mkdtemp(pattern.data()) == nullptr)
            throw std::runtime_error("mkdtemp(" + pattern +
                                     "): " + std::strerror(errno));
        path_ = pattern + "/";
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** The directory, with a trailing slash. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** This process's private scratch directory (trailing slash). */
inline const std::string &
processTempDir()
{
    static const ScratchDir dir;
    return dir.path();
}

/** `name` inside this process's private scratch directory. */
inline std::string
tempPath(const std::string &name)
{
    return processTempDir() + name;
}

/**
 * Run write(partial_path) and then rename the result to `path`, so a
 * reader never sees the file half written.
 */
template <typename Write>
void
writeThenRename(const std::string &path, Write &&write)
{
    const std::string partial = path + ".partial";
    write(partial);
    std::filesystem::rename(partial, path);
}

} // namespace pstat::test

#endif // PSTAT_TESTS_TEST_UTIL_HH
