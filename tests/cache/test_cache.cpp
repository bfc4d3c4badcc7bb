// Tests for DiskCache: residency, byte accounting, capacity enforcement,
// pinning, and a randomized invariant sweep.
#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace fbc {
namespace {

FileCatalog small_catalog() { return FileCatalog({100, 200, 300, 400, 500}); }

TEST(DiskCache, StartsEmpty) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  EXPECT_EQ(cache.capacity(), 1000u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.free_bytes(), 1000u);
  EXPECT_EQ(cache.file_count(), 0u);
  EXPECT_FALSE(cache.contains(0));
}

TEST(DiskCache, RejectsZeroCapacity) {
  FileCatalog catalog = small_catalog();
  EXPECT_THROW(DiskCache(0, catalog), std::invalid_argument);
}

TEST(DiskCache, InsertAndEvictTrackBytes) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  EXPECT_TRUE(cache.insert(0));  // 100
  EXPECT_TRUE(cache.insert(2));  // 300
  EXPECT_EQ(cache.used_bytes(), 400u);
  EXPECT_EQ(cache.file_count(), 2u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(1));

  EXPECT_TRUE(cache.evict(0));
  EXPECT_EQ(cache.used_bytes(), 300u);
  EXPECT_FALSE(cache.contains(0));
}

TEST(DiskCache, DoubleInsertAndEvictAreNoOps) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  EXPECT_TRUE(cache.insert(1));
  EXPECT_FALSE(cache.insert(1));
  EXPECT_EQ(cache.used_bytes(), 200u);
  EXPECT_TRUE(cache.evict(1));
  EXPECT_FALSE(cache.evict(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(DiskCache, InsertBeyondCapacityThrows) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(350, catalog);
  cache.insert(2);  // 300
  EXPECT_THROW(cache.insert(0), std::runtime_error);  // 100 > 50 free
  EXPECT_EQ(cache.used_bytes(), 300u);
}

TEST(DiskCache, InsertUnknownFileThrows) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  EXPECT_THROW(cache.insert(99), std::invalid_argument);
}

TEST(DiskCache, PinnedFilesCannotBeEvicted) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  cache.insert(0);
  cache.pin(0);
  EXPECT_TRUE(cache.pinned(0));
  EXPECT_THROW(cache.evict(0), std::runtime_error);
  cache.unpin(0);
  EXPECT_FALSE(cache.pinned(0));
  EXPECT_TRUE(cache.evict(0));
}

TEST(DiskCache, PinIsCounted) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  cache.insert(0);
  cache.pin(0);
  cache.pin(0);
  cache.unpin(0);
  EXPECT_TRUE(cache.pinned(0));
  cache.unpin(0);
  EXPECT_FALSE(cache.pinned(0));
}

TEST(DiskCache, PinnedBytesCountEachPinnedFileOnce) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  cache.insert(0);
  cache.insert(2);
  EXPECT_EQ(cache.pinned_bytes(), 0u);
  cache.pin(0);
  cache.pin(0);  // a second pin on the same file adds no bytes
  cache.pin(2);
  EXPECT_EQ(cache.pinned_bytes(), 400u);
  cache.unpin(0);
  EXPECT_EQ(cache.pinned_bytes(), 400u);
  cache.unpin(0);
  EXPECT_EQ(cache.pinned_bytes(), 300u);
  cache.unpin(2);
  EXPECT_EQ(cache.pinned_bytes(), 0u);
}

TEST(DiskCache, MissingFilesAndSupports) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  cache.insert(0);
  cache.insert(2);
  const Request r({0, 1, 2, 3});
  EXPECT_EQ(cache.missing_files(r), (std::vector<FileId>{1, 3}));
  EXPECT_EQ(cache.missing_bytes(r), 600u);
  EXPECT_FALSE(cache.supports(r));
  EXPECT_TRUE(cache.supports(Request({0, 2})));
  EXPECT_TRUE(cache.supports(Request{}));
}

TEST(DiskCache, ResidentFilesView) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1000, catalog);
  cache.insert(1);
  cache.insert(3);
  auto resident = cache.resident_files();
  std::vector<FileId> sorted(resident.begin(), resident.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<FileId>{1, 3}));
}

TEST(DiskCache, ClearSparesPinned) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  cache.insert(0);
  cache.insert(1);
  cache.insert(2);
  cache.pin(1);
  cache.clear();
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.used_bytes(), 200u);
}

// Randomized invariant sweep: arbitrary insert/evict/pin/unpin sequences
// keep byte accounting and the resident list consistent.
class DiskCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiskCacheProperty, RandomOpsPreserveInvariants) {
  Rng rng(GetParam());
  FileCatalog catalog;
  for (int i = 0; i < 50; ++i) catalog.add_file(rng.uniform_u64(1, 100));
  DiskCache cache(2000, catalog);

  for (int step = 0; step < 2000; ++step) {
    const FileId id = static_cast<FileId>(rng.index(catalog.count()));
    const double op = rng.uniform_double();
    if (op < 0.4) {
      if (catalog.size_of(id) <= cache.free_bytes()) {
        cache.insert(id);
      }
    } else if (op < 0.8) {
      if (!cache.pinned(id)) cache.evict(id);
    } else if (op < 0.9) {
      if (cache.contains(id)) cache.pin(id);
    } else if (cache.pinned(id)) {
      cache.unpin(id);
    }
    // Invariant: used == sum of resident sizes, count matches view size,
    // pinned_bytes == sum of pinned sizes.
    Bytes expected = 0;
    Bytes pinned = 0;
    for (FileId f : cache.resident_files()) {
      expected += catalog.size_of(f);
      if (cache.pinned(f)) pinned += catalog.size_of(f);
    }
    ASSERT_EQ(cache.used_bytes(), expected);
    ASSERT_EQ(cache.pinned_bytes(), pinned);
    ASSERT_EQ(cache.file_count(), cache.resident_files().size());
    ASSERT_LE(cache.used_bytes(), cache.capacity());
    // Membership view agrees with contains().
    for (FileId f : cache.resident_files()) ASSERT_TRUE(cache.contains(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskCacheProperty,
                         ::testing::Values(1u, 7u, 99u, 12345u));

}  // namespace
}  // namespace fbc
