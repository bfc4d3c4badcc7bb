// merge_metrics tests: field-wise stats sums, name-wise counter
// addition with sorted output, and exact histogram merges -- the merged
// snapshot must equal what one server seeing both streams would record.
#include "cluster/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/histogram.hpp"

namespace fbc::cluster {
namespace {

/// Snapshot whose stats field i holds base + i + 1.
service::MetricsSnapshot sample(std::uint64_t base) {
  service::MetricsSnapshot m;
  for (std::size_t i = 0; i < service::kServiceStatsFields.size(); ++i)
    m.stats.*service::kServiceStatsFields[i].member = base + i + 1;
  return m;
}

TEST(MergeMetrics, SumsEveryStatsField) {
  const std::vector<service::MetricsSnapshot> shards = {sample(0),
                                                        sample(100)};
  const service::ServiceStats merged = merge_metrics(shards).stats;
  for (std::size_t i = 0; i < service::kServiceStatsFields.size(); ++i)
    EXPECT_EQ(merged.*service::kServiceStatsFields[i].member, 2 * i + 102)
        << service::kServiceStatsFields[i].name;
}

TEST(MergeMetrics, EmptyAndSingleton) {
  EXPECT_EQ(merge_metrics({}), service::MetricsSnapshot{});
  // A single snapshot merges to itself: fbcctl prints one daemon's
  // snapshot through the same merge it uses for --cluster.
  service::MetricsSnapshot one = sample(7);
  one.counters = {{"acquire.ok", 3}, {"release.ok", 2}};
  obs::Histogram h;
  h.record(5);
  h.record(900);
  one.histograms.push_back({"acquire.queue_us", h});
  one.histograms.push_back({"lease.hold_us", h});
  EXPECT_EQ(merge_metrics({&one, 1}), one);
}

TEST(MergeMetrics, AddsCountersNameWiseAndSorts) {
  service::MetricsSnapshot a;
  a.counters = {{"acquire.total", 3}, {"evict.total", 1}};
  service::MetricsSnapshot b;
  b.counters = {{"acquire.total", 4}, {"release.total", 2}};
  const std::vector<service::MetricsSnapshot> shards = {a, b};
  const service::MetricsSnapshot merged = merge_metrics(shards);
  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].first, "acquire.total");
  EXPECT_EQ(merged.counters[0].second, 7u);
  EXPECT_EQ(merged.counters[1].first, "evict.total");
  EXPECT_EQ(merged.counters[1].second, 1u);
  EXPECT_EQ(merged.counters[2].first, "release.total");
  EXPECT_EQ(merged.counters[2].second, 2u);
}

TEST(MergeMetrics, MergesHistogramsExactly) {
  obs::Histogram left;
  left.record(10);
  left.record(20);
  obs::Histogram right;
  right.record(30);
  service::MetricsSnapshot a;
  a.histograms.push_back({"queue.wait", left});
  service::MetricsSnapshot b;
  b.histograms.push_back({"queue.wait", right});
  b.histograms.push_back({"stage.seconds", right});
  const std::vector<service::MetricsSnapshot> shards = {a, b};
  const service::MetricsSnapshot merged = merge_metrics(shards);
  ASSERT_EQ(merged.histograms.size(), 2u);
  EXPECT_EQ(merged.histograms[0].name, "queue.wait");
  EXPECT_EQ(merged.histograms[0].hist.count(), 3u);
  EXPECT_EQ(merged.histograms[0].hist.max(), 30u);
  EXPECT_EQ(merged.histograms[1].name, "stage.seconds");
  EXPECT_EQ(merged.histograms[1].hist.count(), 1u);
}

}  // namespace
}  // namespace fbc::cluster
