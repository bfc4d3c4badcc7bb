// BundleServer tests: admission semantics (hit/miss, validation,
// unserviceable), backpressure, timeouts, transfer failure injection with
// bounded retries, admission-order policies, and close() semantics.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "grid/mss.hpp"

namespace fbc::service {
namespace {

/// Catalog with file i of size (i+1)*100 bytes.
FileCatalog sized_catalog(std::size_t count) {
  std::vector<Bytes> sizes;
  sizes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) sizes.push_back((i + 1) * 100);
  return FileCatalog(std::move(sizes));
}

/// Polls the server until its queue depth reaches `depth` (test ordering
/// helper; bounded so a broken server fails rather than hangs).
void wait_for_queue_depth(const BundleServer& server, std::uint64_t depth) {
  for (int i = 0; i < 2000; ++i) {
    if (server.stats().queue_depth >= depth) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "queue depth never reached " << depth;
}

TEST(BundleServer, RejectsBadConfig) {
  FileCatalog catalog = sized_catalog(3);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.max_queue = 0;
  EXPECT_THROW((BundleServer{config, mss}), std::invalid_argument);
  config.max_queue = 4;
  config.policy = "no-such-policy";
  EXPECT_THROW((BundleServer{config, mss}), std::invalid_argument);
}

TEST(BundleServer, ParseAdmitOrder) {
  EXPECT_EQ(parse_admit_order("fifo"), AdmitOrder::Fifo);
  EXPECT_EQ(parse_admit_order("value"), AdmitOrder::ValueDensity);
  EXPECT_THROW((void)parse_admit_order("lifo"), std::invalid_argument);
}

TEST(BundleServer, MissThenHitThenRelease) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult miss = server.acquire(Request({0, 1}));
  ASSERT_EQ(miss.status, AcquireStatus::Ok);
  EXPECT_FALSE(miss.request_hit);
  EXPECT_NE(miss.lease, 0u);

  const AcquireResult hit = server.acquire(Request({0, 1}));
  ASSERT_EQ(hit.status, AcquireStatus::Ok);
  EXPECT_TRUE(hit.request_hit);
  EXPECT_NE(hit.lease, miss.lease);

  EXPECT_TRUE(server.release(miss.lease));
  EXPECT_TRUE(server.release(hit.lease));
  EXPECT_FALSE(server.release(miss.lease));  // double release
  EXPECT_FALSE(server.release(12345));       // unknown lease

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(stats.used_bytes, 300u);  // files stay resident after release
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, RejectsInvalidAndUnserviceable) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 600;
  BundleServer server(config, mss);

  EXPECT_EQ(server.acquire(Request{}).status, AcquireStatus::InvalidRequest);
  EXPECT_EQ(server.acquire(Request({99})).status,
            AcquireStatus::InvalidRequest);
  // Files 3+4 total 900 bytes > 600-byte cache: never serviceable.
  EXPECT_EQ(server.acquire(Request({3, 4})).status,
            AcquireStatus::Unserviceable);

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.unserviceable, 1u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST(BundleServer, QueueFullBackpressure) {
  FileCatalog catalog({600, 600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.max_queue = 1;
  config.timeout_ms = 5000;
  BundleServer server(config, mss);

  // Hold file 0 leased: only 400 free, nothing evictable.
  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  // One waiter occupies the whole queue...
  auto blocked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);

  // ...so the next acquire is rejected with a retry hint, not queued.
  const AcquireResult rejected = server.acquire(Request({2}));
  EXPECT_EQ(rejected.status, AcquireStatus::QueueFull);
  EXPECT_GT(rejected.retry_after_ms, 0u);

  EXPECT_TRUE(server.release(held.lease));
  const AcquireResult unblocked = blocked.get();
  EXPECT_EQ(unblocked.status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().rejected_full, 1u);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, TimesOutWhenPinnedBytesNeverFree) {
  FileCatalog catalog({600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.timeout_ms = 50;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  // {1} needs 600 bytes; only 400 free and the lease pins the rest.
  const AcquireResult timed_out = server.acquire(Request({1}));
  EXPECT_EQ(timed_out.status, AcquireStatus::TimedOut);
  EXPECT_EQ(server.stats().timed_out, 1u);
  EXPECT_EQ(server.stats().queue_depth, 0u);  // waiter left the queue
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, TransferFailureExhaustsBoundedRetries) {
  FileCatalog catalog = sized_catalog(3);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.transfer_fail_prob = 1.0;  // every attempt fails
  config.max_retries = 2;
  config.retry_backoff_ms = 1;
  BundleServer server(config, mss);

  const AcquireResult failed = server.acquire(Request({0}));
  EXPECT_EQ(failed.status, AcquireStatus::TransferFailed);
  EXPECT_EQ(failed.retries, 2u);  // retried max_retries times, then gave up

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.transfer_failures, 1u);
  EXPECT_EQ(stats.transfer_retries, 2u);
  EXPECT_EQ(stats.requests, 0u);      // never admitted
  EXPECT_EQ(stats.used_bytes, 0u);    // failed attempts touch nothing
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, TransferRetriesCanSucceed) {
  FileCatalog catalog = sized_catalog(3);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.transfer_fail_prob = 0.5;
  config.max_retries = 64;  // practically always succeeds eventually
  config.retry_backoff_ms = 1;
  config.seed = 7;
  BundleServer server(config, mss);

  const AcquireResult result = server.acquire(Request({0, 1}));
  ASSERT_EQ(result.status, AcquireStatus::Ok);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.transfer_failures, 0u);
  EXPECT_EQ(stats.transfer_retries, result.retries);
  EXPECT_TRUE(server.audit().empty());
}

// Shared shape for the admission-order tests. Catalog:
//   file0 = 600 (held lease), file1 = 500 (W1's bundle, 0% resident),
//   file2 = 500 (W2's missing file), file3 = 100 (resident, in W2's
//   bundle, so W2 is ~17% resident by bytes).
// With capacity 1000 and {0} leased, both waiters are blocked (500
// missing > 300 free + 100 evictable); once the lease is released both
// could be admitted, so the configured order alone decides who goes
// first -- and whoever wins pins enough bytes to keep the loser queued
// until a second release.
struct OrderFixture {
  FileCatalog catalog{{600, 500, 500, 100}};
  MassStorageSystem mss{default_tiers(), catalog};
  std::unique_ptr<BundleServer> server;

  explicit OrderFixture(AdmitOrder order) {
    ServiceConfig config;
    config.cache_bytes = 1000;
    config.order = order;
    config.timeout_ms = 20000;
    server = std::make_unique<BundleServer>(config, mss);
    // Make file3 resident but unpinned.
    const AcquireResult warm = server->acquire(Request({3}));
    if (warm.status != AcquireStatus::Ok || !server->release(warm.lease))
      throw std::runtime_error("order fixture warm-up failed");
  }
};

TEST(BundleServer, ValueDensityAdmitsCheapestBundleFirst) {
  OrderFixture fx(AdmitOrder::ValueDensity);
  BundleServer& server = *fx.server;

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  auto w1 = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);
  auto w2 = std::async(std::launch::async, [&server] {
    return server.acquire(Request({2, 3}));
  });
  wait_for_queue_depth(server, 2);

  ASSERT_TRUE(server.release(held.lease));
  // W2 arrived later but is partially resident: ValueDensity admits it
  // first while W1 keeps waiting on W2's pinned bytes.
  const AcquireResult dense = w2.get();
  ASSERT_EQ(dense.status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().queue_depth, 1u);  // W1 is still waiting

  ASSERT_TRUE(server.release(dense.lease));
  const AcquireResult sparse = w1.get();
  ASSERT_EQ(sparse.status, AcquireStatus::Ok);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, FifoAdmitsInArrivalOrder) {
  OrderFixture fx(AdmitOrder::Fifo);
  BundleServer& server = *fx.server;

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  auto w1 = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);
  auto w2 = std::async(std::launch::async, [&server] {
    return server.acquire(Request({2, 3}));
  });
  wait_for_queue_depth(server, 2);

  ASSERT_TRUE(server.release(held.lease));
  // FIFO ignores W2's resident advantage: W1 arrived first, W1 goes
  // first, W2 stays queued behind W1's lease.
  const AcquireResult first = w1.get();
  ASSERT_EQ(first.status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().queue_depth, 1u);  // W2 is still waiting

  ASSERT_TRUE(server.release(first.lease));
  const AcquireResult second = w2.get();
  ASSERT_EQ(second.status, AcquireStatus::Ok);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, CloseWakesQueuedWaiters) {
  FileCatalog catalog({600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.timeout_ms = 20000;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  auto blocked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);

  server.close();
  EXPECT_EQ(blocked.get().status, AcquireStatus::Closed);
  EXPECT_EQ(server.acquire(Request({1})).status, AcquireStatus::Closed);
  // Existing leases stay valid across close.
  EXPECT_TRUE(server.release(held.lease));
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, QueueWaitMetricCountsOvertakingAdmissions) {
  FileCatalog catalog({600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.timeout_ms = 20000;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  auto blocked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);
  ASSERT_TRUE(server.release(held.lease));
  ASSERT_EQ(blocked.get().status, AcquireStatus::Ok);
  // The blocked request watched zero other admissions but still counts
  // as one serviced job.
  EXPECT_EQ(server.stats().requests, 2u);
}

// Regression for the retry-after truncation bug: the hint is computed in
// 64 bits (backoff * (1 + queue depth)) and used to be static_cast down
// to the u32 wire field. backoff = 2^31 with one waiter made the hint
// exactly 2^32, which truncated to retry_after_ms == 0 -- "retry
// immediately", the worst possible backpressure signal.
TEST(BundleServer, RetryAfterSaturatesInsteadOfWrapping) {
  FileCatalog catalog({600, 600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.max_queue = 1;
  config.timeout_ms = 5000;
  config.retry_backoff_ms = 2147483648u;  // 2^31
  config.retry_after_cap_ms = 0;          // uncapped: saturate at u32 max
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  auto blocked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);

  const AcquireResult rejected = server.acquire(Request({2}));
  ASSERT_EQ(rejected.status, AcquireStatus::QueueFull);
  EXPECT_EQ(rejected.retry_after_ms,
            std::numeric_limits<std::uint32_t>::max());

  EXPECT_TRUE(server.release(held.lease));
  EXPECT_EQ(blocked.get().status, AcquireStatus::Ok);
}

TEST(BundleServer, RetryAfterHonorsConfiguredCap) {
  FileCatalog catalog({600, 600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.max_queue = 1;
  config.timeout_ms = 5000;
  config.retry_backoff_ms = 2147483648u;
  config.retry_after_cap_ms = 1234;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  auto blocked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);

  const AcquireResult rejected = server.acquire(Request({2}));
  ASSERT_EQ(rejected.status, AcquireStatus::QueueFull);
  EXPECT_EQ(rejected.retry_after_ms, 1234u);

  EXPECT_TRUE(server.release(held.lease));
  EXPECT_EQ(blocked.get().status, AcquireStatus::Ok);
}

TEST(BundleServer, MetricsTieToStatsWhenQuiescent) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult miss = server.acquire(Request({0, 1}));
  ASSERT_EQ(miss.status, AcquireStatus::Ok);
  const AcquireResult hit = server.acquire(Request({0, 1}));
  ASSERT_EQ(hit.status, AcquireStatus::Ok);
  ASSERT_TRUE(server.release(miss.lease));
  ASSERT_EQ(server.acquire(Request{}).status, AcquireStatus::InvalidRequest);

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.stats, server.stats());

  const auto counter = [&m](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : m.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter("acquire.ok"), m.stats.requests);
  EXPECT_EQ(counter("acquire.invalid"), m.stats.invalid);
  EXPECT_EQ(counter("release.ok"), m.stats.leases_released);
  EXPECT_EQ(m.stats.requests, 2u);
  EXPECT_EQ(m.stats.leases_released, 1u);

  const auto histogram = [&m](std::string_view name) -> const obs::Histogram* {
    for (const auto& named : m.histograms)
      if (named.name == name) return &named.hist;
    return nullptr;
  };
  // Every acquire.* duration histogram holds exactly one observation per
  // granted request; lease.hold_us one per release.
  for (const char* name : {"acquire.fetch_us", "acquire.queue_depth",
                           "acquire.queue_us", "acquire.reserve_us",
                           "acquire.total_us"}) {
    const obs::Histogram* h = histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), m.stats.requests) << name;
  }
  const obs::Histogram* hold = histogram("lease.hold_us");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), m.stats.leases_released);

  // Export order is lexicographic by name (the wire decoder enforces
  // strictly increasing names).
  for (std::size_t i = 1; i < m.histograms.size(); ++i)
    EXPECT_LT(m.histograms[i - 1].name, m.histograms[i].name);
  for (std::size_t i = 1; i < m.counters.size(); ++i)
    EXPECT_LT(m.counters[i - 1].first, m.counters[i].first);
}

TEST(BundleServer, EveryStatsFieldIsFilled) {
  // Scripted scenarios that between them move every counter: each
  // kServiceStatsFields row must read non-zero in at least one snapshot,
  // so metrics() cannot leave a field behind as a stale zero.
  FileCatalog catalog({600, 600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  std::vector<ServiceStats> snaps;
  {
    // A miss, a hit and an eviction; the last lease is held at snapshot
    // time.
    BundleServer server(config, mss);
    ASSERT_TRUE(server.release(server.acquire(Request({0})).lease));
    ASSERT_TRUE(server.release(server.acquire(Request({0})).lease));
    ASSERT_EQ(server.acquire(Request({1})).status, AcquireStatus::Ok);
    snaps.push_back(server.metrics().stats);
  }
  {
    // Invalid, unserviceable, then queue-full behind a waiter that is
    // still queued at snapshot time.
    ServiceConfig queued = config;
    queued.max_queue = 1;
    BundleServer server(queued, mss);
    EXPECT_EQ(server.acquire(Request{}).status,
              AcquireStatus::InvalidRequest);
    EXPECT_EQ(server.acquire(Request({0, 1})).status,
              AcquireStatus::Unserviceable);
    const AcquireResult held = server.acquire(Request({0}));
    ASSERT_EQ(held.status, AcquireStatus::Ok);
    auto blocked = std::async(std::launch::async, [&server] {
      return server.acquire(Request({1}));
    });
    wait_for_queue_depth(server, 1);
    EXPECT_EQ(server.acquire(Request({2})).status, AcquireStatus::QueueFull);
    snaps.push_back(server.metrics().stats);
    ASSERT_TRUE(server.release(held.lease));
    const AcquireResult admitted = blocked.get();
    ASSERT_EQ(admitted.status, AcquireStatus::Ok);
    EXPECT_TRUE(server.release(admitted.lease));
  }
  {
    // A timeout behind a lease that never frees its bytes.
    ServiceConfig hurried = config;
    hurried.timeout_ms = 50;
    BundleServer server(hurried, mss);
    ASSERT_EQ(server.acquire(Request({0})).status, AcquireStatus::Ok);
    EXPECT_EQ(server.acquire(Request({1})).status, AcquireStatus::TimedOut);
    snaps.push_back(server.metrics().stats);
  }
  {
    // A transfer retried and then failed, with a fixed seed.
    ServiceConfig flaky = config;
    flaky.transfer_fail_prob = 1.0;
    flaky.max_retries = 1;
    flaky.retry_backoff_ms = 1;
    flaky.seed = 7;
    BundleServer server(flaky, mss);
    EXPECT_EQ(server.acquire(Request({0})).status,
              AcquireStatus::TransferFailed);
    snaps.push_back(server.metrics().stats);
  }
  for (const StatsField& field : kServiceStatsFields) {
    const bool filled =
        std::ranges::any_of(snaps, [&field](const ServiceStats& s) {
          return s.*field.member != 0;
        });
    EXPECT_TRUE(filled) << field.name << " reads 0 in every scenario";
  }
}

TEST(BundleServer, BytesMissedCountsColdMissThenHit) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult miss = server.acquire(Request({0, 1}));
  ASSERT_EQ(miss.status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().bytes_missed, 300u);  // cold miss fetched all
  const AcquireResult hit = server.acquire(Request({0, 1}));
  ASSERT_EQ(hit.status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().bytes_missed, 300u);  // full hit fetched nothing
  EXPECT_EQ(server.stats().bytes_requested, 600u);
}

TEST(BundleServer, QueueFullCounterTiesToStats) {
  FileCatalog catalog({600, 600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.max_queue = 1;
  config.timeout_ms = 5000;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  auto blocked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);
  ASSERT_EQ(server.acquire(Request({2})).status, AcquireStatus::QueueFull);
  EXPECT_TRUE(server.release(held.lease));
  ASSERT_EQ(blocked.get().status, AcquireStatus::Ok);

  const MetricsSnapshot m = server.metrics();
  std::uint64_t queue_full = 0;
  for (const auto& [n, v] : m.counters)
    if (n == "acquire.queue_full") queue_full = v;
  EXPECT_EQ(queue_full, m.stats.rejected_full);
  EXPECT_EQ(queue_full, 1u);
}

TEST(BundleServer, PausedAdmissionQueuesWithoutAdmitting) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  server.set_admission_paused(true);
  EXPECT_TRUE(server.admission_paused());
  auto waiter = std::async(std::launch::async, [&server] {
    return server.acquire(Request({0}));
  });
  wait_for_queue_depth(server, 1);
  // Nothing may be admitted while paused, even though the bundle fits.
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ(server.stats().requests, 0u);

  server.set_admission_paused(false);
  EXPECT_FALSE(server.admission_paused());
  EXPECT_EQ(waiter.get().status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST(BundleServer, BatchedDrainAdmitsTheWholeQueueInOnePass) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  config.admission_batch = 8;
  BundleServer server(config, mss);

  // Park three disjoint single-file acquires in the queue, then resume:
  // whichever waiter drains first admits all three under one lock hold.
  server.set_admission_paused(true);
  std::vector<std::future<AcquireResult>> waiters;
  for (FileId id = 0; id < 3; ++id) {
    waiters.push_back(std::async(std::launch::async, [&server, id] {
      return server.acquire(Request({id}));
    }));
  }
  wait_for_queue_depth(server, 3);
  server.set_admission_paused(false);
  for (auto& waiter : waiters)
    EXPECT_EQ(waiter.get().status, AcquireStatus::Ok);

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.stats.requests, 3u);
  const obs::Histogram* batch = nullptr;
  for (const auto& named : m.histograms)
    if (named.name == "admit.batch_size") batch = &named.hist;
  ASSERT_NE(batch, nullptr);
  // Every grant is counted by exactly one drain pass...
  EXPECT_EQ(batch->sum(), m.stats.requests);
  // ...and the parked queue drained as one batch, not three serial
  // passes -- the lock-amortization the batching exists for.
  EXPECT_EQ(batch->max(), 3u);
  EXPECT_GE(batch->count(), 1u);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, QueueStageTimingsSurviveBatchedAdmission) {
  // Stage instants are stamped by the draining thread (which may not be
  // the waiter's own under batching); the exported timings must still
  // be coherent.
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  config.admission_batch = 8;
  BundleServer server(config, mss);

  server.set_admission_paused(true);
  std::vector<std::future<AcquireResult>> waiters;
  for (FileId id = 0; id < 3; ++id) {
    waiters.push_back(std::async(std::launch::async, [&server, id] {
      return server.acquire(Request({id}));
    }));
  }
  wait_for_queue_depth(server, 3);
  server.set_admission_paused(false);
  for (auto& waiter : waiters)
    ASSERT_EQ(waiter.get().status, AcquireStatus::Ok);

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.stats.requests, 3u);
  const obs::Histogram* queue_us = nullptr;
  for (const auto& named : m.histograms)
    if (named.name == "acquire.queue_us") queue_us = &named.hist;
  ASSERT_NE(queue_us, nullptr);
  // All three sat parked in the paused queue for milliseconds, so no
  // queue stage can have collapsed to zero...
  EXPECT_GT(queue_us->min(), 0u);
  // ...and the histogram counts tie to stats even when admissions were
  // batched.
  EXPECT_EQ(queue_us->count(), m.stats.requests);
}

TEST(BundleServer, SerialAdmissionBatchRecordsSingletonPasses) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  config.admission_batch = 1;  // the pre-batching serial server
  BundleServer server(config, mss);

  server.set_admission_paused(true);
  std::vector<std::future<AcquireResult>> waiters;
  for (FileId id = 0; id < 3; ++id) {
    waiters.push_back(std::async(std::launch::async, [&server, id] {
      return server.acquire(Request({id}));
    }));
  }
  wait_for_queue_depth(server, 3);
  server.set_admission_paused(false);
  for (auto& waiter : waiters)
    EXPECT_EQ(waiter.get().status, AcquireStatus::Ok);

  const MetricsSnapshot m = server.metrics();
  const obs::Histogram* batch = nullptr;
  for (const auto& named : m.histograms)
    if (named.name == "admit.batch_size") batch = &named.hist;
  ASSERT_NE(batch, nullptr);
  // admission_batch=1 must never admit more than one waiter per pass.
  EXPECT_EQ(batch->max(), 1u);
  EXPECT_EQ(batch->sum(), m.stats.requests);
  EXPECT_EQ(batch->count(), 3u);
}

TEST(BundleServer, ParkedAcquiresWakeOnReleaseAndClose) {
  // The server notifies its condition variable only while a thread is
  // parked on it. Each waiter below is given time to park before the
  // call that must wake it; a missed wake would show as a timeout.
  FileCatalog catalog({600, 600, 600});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.timeout_ms = 20000;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  // {1} needs 600 bytes; the lease on {0} pins all but 400 of them.
  auto on_pinned = std::async(std::launch::async, [&server] {
    return server.acquire(Request({1}));
  });
  wait_for_queue_depth(server, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto released_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.release(held.lease));
  const AcquireResult woken = on_pinned.get();
  EXPECT_EQ(woken.status, AcquireStatus::Ok);
  EXPECT_LT(std::chrono::steady_clock::now() - released_at,
            std::chrono::seconds(10));

  // Now {1} is leased, and {2} parks behind it until close().
  auto parked = std::async(std::launch::async, [&server] {
    return server.acquire(Request({2}));
  });
  wait_for_queue_depth(server, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.close();
  EXPECT_EQ(parked.get().status, AcquireStatus::Closed);
  EXPECT_TRUE(server.release(woken.lease));
  EXPECT_EQ(server.stats().timed_out, 0u);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, BatchSizeSumTiesToRequestsUnderConcurrency) {
  // admit.batch_size is recorded under the admission lock, in the same
  // hold that counts the grants, so every snapshot ties exactly -- also
  // one taken mid-run.
  FileCatalog catalog = sized_catalog(12);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 4000;
  BundleServer server(config, mss);

  const auto batch_sum = [](const MetricsSnapshot& m) -> std::uint64_t {
    for (const auto& named : m.histograms)
      if (named.name == "admit.batch_size") return named.hist.sum();
    ADD_FAILURE() << "admit.batch_size missing";
    return 0;
  };
  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      std::uint32_t x = t * 2654435761U + 1;
      for (int i = 0; i < 400; ++i) {
        x = x * 1664525U + 1013904223U;
        const auto first = static_cast<FileId>((x >> 8) % 12);
        const auto second = static_cast<FileId>((x >> 16) % 12);
        const AcquireResult r = server.acquire(Request({first, second}));
        if (r.status != AcquireStatus::Ok) continue;
        granted.fetch_add(1, std::memory_order_relaxed);
        EXPECT_TRUE(server.release(r.lease));
      }
    });
  }
  std::thread observer([&] {
    while (running.load(std::memory_order_acquire)) {
      const MetricsSnapshot m = server.metrics();
      EXPECT_EQ(batch_sum(m), m.stats.requests);
    }
  });
  for (std::thread& client : clients) client.join();
  running.store(false, std::memory_order_release);
  observer.join();

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.stats.requests, granted.load());
  EXPECT_EQ(batch_sum(m), m.stats.requests);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServer, ResidentFilesSnapshotIsSortedAndMatchesStats) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult r = server.acquire(Request({3, 0, 1}));
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  const std::vector<FileId> resident = server.resident_files();
  EXPECT_EQ(resident, (std::vector<FileId>{0, 1, 3}));
  EXPECT_EQ(resident.size(), server.stats().resident_files);
}

}  // namespace
}  // namespace fbc::service
