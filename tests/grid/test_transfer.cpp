// Tests for the parallel-stream transfer scheduler.
#include "grid/transfer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "grid/mss.hpp"
#include "grid/replica.hpp"

namespace fbc {
namespace {

/// One tier with zero latency and bandwidth 1 byte/s: fetch time == size.
MassStorageSystem simple_mss(const FileCatalog& catalog) {
  return MassStorageSystem({StorageTier{"t", 0.0, 1.0}}, catalog);
}

TEST(Transfer, EmptySetCostsNothing) {
  FileCatalog catalog({10});
  const auto mss = simple_mss(catalog);
  TransferModel model;
  EXPECT_DOUBLE_EQ(model.stage_seconds({}, mss), 0.0);
}

TEST(Transfer, SerialSumsDurations) {
  FileCatalog catalog({10, 20, 30});
  const auto mss = simple_mss(catalog);
  TransferModel model{.max_parallel = 1};
  const std::vector<FileId> files{0, 1, 2};
  EXPECT_DOUBLE_EQ(model.stage_seconds(files, mss), 60.0);
}

TEST(Transfer, PerfectlyParallel) {
  FileCatalog catalog({10, 10, 10});
  const auto mss = simple_mss(catalog);
  TransferModel model{.max_parallel = 3};
  const std::vector<FileId> files{0, 1, 2};
  EXPECT_DOUBLE_EQ(model.stage_seconds(files, mss), 10.0);
}

TEST(Transfer, LptMakespanKnownInstance) {
  // Durations {7, 5, 4, 3, 1} on 2 streams: LPT assigns 7+3, 5+4+1 ->
  // makespan 10.
  FileCatalog catalog({7, 5, 4, 3, 1});
  const auto mss = simple_mss(catalog);
  TransferModel model{.max_parallel = 2};
  const std::vector<FileId> files{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(model.stage_seconds(files, mss), 10.0);
}

TEST(Transfer, MakespanAtLeastLongestFile) {
  FileCatalog catalog({100, 1, 1, 1});
  const auto mss = simple_mss(catalog);
  TransferModel model{.max_parallel = 4};
  const std::vector<FileId> files{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(model.stage_seconds(files, mss), 100.0);
}

TEST(Transfer, MoreStreamsNeverSlower) {
  FileCatalog catalog;
  for (Bytes i = 0; i < 12; ++i) catalog.add_file(10 + 7 * (i % 4));
  const auto mss = simple_mss(catalog);
  std::vector<FileId> files;
  for (FileId id = 0; id < 12; ++id) files.push_back(id);
  double prev = 1e18;
  for (std::size_t streams = 1; streams <= 6; ++streams) {
    TransferModel model{.max_parallel = streams};
    const double t = model.stage_seconds(files, mss);
    EXPECT_LE(t, prev + 1e-9);
    prev = t;
  }
}

TEST(Transfer, ZeroParallelTreatedAsOne) {
  FileCatalog catalog({10, 20});
  const auto mss = simple_mss(catalog);
  TransferModel model{.max_parallel = 0};
  const std::vector<FileId> files{0, 1};
  EXPECT_DOUBLE_EQ(model.stage_seconds(files, mss), 30.0);
}

TEST(Transfer, PerFileLatencyIsPaidOncePerFilePerStream) {
  // Huge bandwidth makes transfers latency-bound: four fetches of 10 s
  // latency each across two streams still cost two rounds of latency.
  FileCatalog catalog({1, 1, 1, 1});
  MassStorageSystem mss({StorageTier{"tape", 10.0, 1e12}}, catalog);
  TransferModel model{.max_parallel = 2};
  const std::vector<FileId> files{0, 1, 2, 3};
  EXPECT_NEAR(model.stage_seconds(files, mss), 20.0, 1e-6);
}

TEST(Transfer, MixedTierPlacementUsesEachFilesOwnTier) {
  // File 0 stays on the fast disk tier; file 1 is placed on slow tape.
  // The serial stage time must be the sum of the two tier-specific costs,
  // proving per-file placement (not a single blended rate) is honored.
  FileCatalog catalog({1000, 1000});
  const StorageTier disk{"disk", 0.0, 100.0};  // 10 s per file
  const StorageTier tape{"tape", 50.0, 100.0};  // 60 s per file
  MassStorageSystem mss({disk, tape}, catalog);
  mss.place_file(1, 1);
  EXPECT_DOUBLE_EQ(mss.fetch_seconds(0), 10.0);
  EXPECT_DOUBLE_EQ(mss.fetch_seconds(1), 60.0);
  TransferModel model{.max_parallel = 1};
  const std::vector<FileId> files{0, 1};
  EXPECT_DOUBLE_EQ(model.stage_seconds(files, mss), 70.0);
  // With two streams the tape fetch dominates the makespan.
  TransferModel wide{.max_parallel = 2};
  EXPECT_DOUBLE_EQ(wide.stage_seconds(files, mss), 60.0);
}

TEST(Transfer, ReplicationShortensBundleStaging) {
  // The transfer scheduler works against any StorageBackend: replicating
  // a bundle's files onto a fast site cuts its staging makespan.
  FileCatalog catalog({100 * MiB, 100 * MiB, 100 * MiB});
  std::vector<ReplicaSite> sites{
      ReplicaSite{"origin", StorageTier{"wan", 2.0, 10.0 * MiB}, 0},
      ReplicaSite{"local", StorageTier{"disk", 0.05, 400.0 * MiB}, 1 * GiB},
  };
  ReplicaManager manager(sites, catalog);
  TransferModel model{.max_parallel = 2};
  const std::vector<FileId> files{0, 1, 2};
  const double before = model.stage_seconds(files, manager);
  manager.add_replica(0, 1);
  manager.add_replica(1, 1);
  manager.add_replica(2, 1);
  const double after = model.stage_seconds(files, manager);
  EXPECT_LT(after, before);
  // All three replicated fetches beat even one WAN fetch.
  EXPECT_LT(after, sites[0].tier.fetch_seconds(100 * MiB));
}

TEST(Transfer, MatchesPriorityQueueLptBitForBit) {
  // stage_seconds reuses per-thread scratch and a heap over it; it must
  // return exactly what a fresh sort plus std::priority_queue LPT does,
  // whatever bundle and stream count came before it on the thread.
  const auto reference = [](std::span<const FileId> files,
                            const StorageBackend& mss, std::size_t streams) {
    std::vector<double> durations;
    for (FileId id : files) durations.push_back(mss.fetch_seconds(id));
    std::sort(durations.begin(), durations.end(), std::greater<>());
    std::priority_queue<double, std::vector<double>, std::greater<>> loads;
    for (std::size_t s = 0; s < std::max<std::size_t>(1, streams); ++s)
      loads.push(0.0);
    double makespan = 0.0;
    for (double d : durations) {
      const double load = loads.top() + d;
      loads.pop();
      loads.push(load);
      makespan = std::max(makespan, load);
    }
    return makespan;
  };
  FileCatalog catalog;
  for (Bytes i = 0; i < 40; ++i) catalog.add_file(1 + (i * 7919) % 1000);
  MassStorageSystem mss(default_tiers(), catalog);
  for (FileId id = 0; id < 40; id += 3) mss.place_file(id, 1);
  std::uint32_t x = 12345;
  for (int trial = 0; trial < 200; ++trial) {
    x = x * 1664525U + 1013904223U;
    std::vector<FileId> files;
    for (FileId id = 0; id < 40; ++id)
      if (((x >> (id % 24)) & 3U) == 0) files.push_back(id);
    const std::size_t streams = (x >> 26) % 7;
    const TransferModel model{.max_parallel = streams};
    EXPECT_EQ(model.stage_seconds(files, mss), reference(files, mss, streams))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace fbc
