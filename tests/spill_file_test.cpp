// Tests for shard/spill_file.h: data round-trips through the mapping, the
// backing temp file is unlinked immediately (nothing left behind by name),
// no file descriptors leak, and RAII unmaps on every path out of a scope —
// including exception unwinding.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "shard/spill_file.h"

namespace parsemi {
namespace {

// Number of open descriptors in this process, via /proc/self/fd.
size_t open_fd_count() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  size_t n = 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;  // includes ".", "..", and the dirfd itself — fine for deltas
}

// Number of directory entries (excluding . and ..) in `dir`.
size_t dir_entry_count(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t n = 0;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name != "." && name != "..") ++n;
  }
  closedir(d);
  return n;
}

// A scratch spill directory so the tests can observe "no file left by name"
// without interference from other /tmp traffic.
class SpillFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/parsemi-spill-test-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    setenv("PARSEMI_SPILL_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("PARSEMI_SPILL_DIR");
    rmdir(dir_.c_str());  // fails (harmlessly) if a test leaked a file
  }
  std::string dir_;
};

TEST_F(SpillFileTest, DataRoundTrips) {
  spill_file f(1 << 20);
  ASSERT_TRUE(f.valid());
  EXPECT_EQ(f.size(), 1u << 20);
  auto words = f.as_span<uint64_t>();
  ASSERT_EQ(words.size(), (1u << 20) / sizeof(uint64_t));
  std::iota(words.begin(), words.end(), uint64_t{7});
  for (size_t i = 0; i < words.size(); i += 997) {
    ASSERT_EQ(words[i], 7 + i) << i;
  }
}

TEST_F(SpillFileTest, FileIsUnlinkedWhileAlive) {
  spill_file f(1 << 16);
  ASSERT_TRUE(f.valid());
  // The backing file was unlinked at creation: the spill dir holds no entry
  // even while the mapping is live, so a crash cannot strand disk space.
  EXPECT_EQ(dir_entry_count(dir_), 0u);
}

TEST_F(SpillFileTest, NoDescriptorLeak) {
  size_t before = open_fd_count();
  {
    spill_file f(1 << 16);
    ASSERT_TRUE(f.valid());
    // The creation fd is closed once the mapping holds the inode.
    EXPECT_EQ(open_fd_count(), before);
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST_F(SpillFileTest, CleansUpOnExceptionPath) {
  size_t before = open_fd_count();
  try {
    spill_file f(1 << 16);
    ASSERT_TRUE(f.valid());
    f.as_span<uint32_t>()[0] = 42;
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  // Unwinding destroyed the mapping and nothing remains by fd or by name.
  EXPECT_EQ(open_fd_count(), before);
  EXPECT_EQ(dir_entry_count(dir_), 0u);
}

TEST_F(SpillFileTest, ConstructorFailureThrowsAndLeaksNothing) {
  setenv("PARSEMI_SPILL_DIR", "/nonexistent-parsemi-dir", 1);
  size_t before = open_fd_count();
  EXPECT_THROW(spill_file(1 << 16), std::runtime_error);
  EXPECT_EQ(open_fd_count(), before);
}

TEST_F(SpillFileTest, MoveTransfersOwnership) {
  spill_file a(1 << 16);
  std::byte* p = a.data();
  spill_file b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 1u << 16);

  spill_file c(1 << 12);
  c = std::move(b);  // move-assign over a live mapping unmaps the old one
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.size(), 1u << 16);
  EXPECT_FALSE(b.valid());
}

TEST_F(SpillFileTest, ResetReleasesEarly) {
  spill_file f(1 << 16);
  ASSERT_TRUE(f.valid());
  f.reset();
  EXPECT_FALSE(f.valid());
  EXPECT_EQ(f.size(), 0u);
  f.reset();  // idempotent
}

TEST_F(SpillFileTest, GrowToKeepsALargeEnoughRun) {
  spill_file f;
  f.grow_to(1 << 16);  // an empty run grows like a fresh one
  ASSERT_TRUE(f.valid());
  EXPECT_EQ(f.size(), 1u << 16);
  std::byte* p = f.data();
  f.as_span<uint64_t>()[0] = 5;

  f.grow_to(1 << 12);  // smaller: the same mapping, data intact
  EXPECT_EQ(f.data(), p);
  EXPECT_EQ(f.size(), 1u << 16);
  EXPECT_EQ(f.as_span<uint64_t>()[0], 5u);

  size_t fds = open_fd_count();
  f.grow_to(1 << 20);  // larger: a fresh run of exactly that size
  EXPECT_EQ(f.size(), 1u << 20);
  EXPECT_EQ(f.as_span<uint64_t>()[(1 << 20) / 8 - 1], 0u);
  EXPECT_EQ(open_fd_count(), fds);
  EXPECT_EQ(dir_entry_count(dir_), 0u);
}

TEST_F(SpillFileTest, ZeroSizeIsEmptyAndSafe) {
  spill_file f(0);
  EXPECT_FALSE(f.valid());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(dir_entry_count(dir_), 0u);  // no file was created at all
  f.advise_willneed(0, 100);             // hints are no-ops when empty
  f.advise_dontneed(0, 100);
  f.advise_sequential();
}

TEST_F(SpillFileTest, AdviseClampsOutOfRange) {
  spill_file f(1 << 16);
  // Out-of-range and overlapping hints must not fault or corrupt data.
  f.as_span<uint64_t>()[0] = 99;
  f.advise_willneed(1 << 20, 100);       // offset past the end: no-op
  f.advise_dontneed(100, 1 << 30);       // length clamped to the mapping
  f.advise_willneed(4095, 2);            // unaligned offset: aligned down
  EXPECT_EQ(f.as_span<uint64_t>()[0], 99u);
}

TEST_F(SpillFileTest, FallsBackToTmpWhenUnset) {
  unsetenv("PARSEMI_SPILL_DIR");
  unsetenv("TMPDIR");
  spill_file f(1 << 12);
  EXPECT_TRUE(f.valid());
}

}  // namespace
}  // namespace parsemi
