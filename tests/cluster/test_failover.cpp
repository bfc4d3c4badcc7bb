// Shard-failure tests for the ClusterRouter: the down/recover state
// machine (K consecutive NetErrors mark a shard down, a probe brings it
// back), degraded placement (requests re-route to live shards, affinity
// falls back to its hash partition), the scatter-release fix (one dead
// shard no longer strands the other parts), deferred releases flushing
// on recovery, stats/metrics surviving a dead shard, and the
// FaultInjectionShard test double itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "grid/mss.hpp"
#include "service/net.hpp"
#include "service/server.hpp"

namespace fbc::cluster {
namespace {

using service::AcquireResult;
using service::AcquireStatus;
using service::BundleServer;
using service::ServiceConfig;

/// A router over N real in-process shards, each behind a kill/revive
/// wrapper; all state owned here.
struct FaultyCluster {
  FileCatalog catalog;
  std::unique_ptr<MassStorageSystem> mss;
  std::vector<std::unique_ptr<BundleServer>> servers;
  std::vector<FaultInjectionShard*> faulty;  ///< aliases, router owns
  std::unique_ptr<ClusterRouter> router;

  BundleServer& server(std::size_t i) { return *servers[i]; }
  void kill(std::size_t i) { faulty[i]->kill(); }
  void revive(std::size_t i) { faulty[i]->revive(); }
};

FaultyCluster make_cluster(const ClusterConfig& config, std::size_t files,
                           const ServiceConfig& service_base) {
  FaultyCluster cluster;
  std::vector<Bytes> sizes(files, 100);
  cluster.catalog = FileCatalog(std::move(sizes));
  cluster.mss =
      std::make_unique<MassStorageSystem>(default_tiers(), cluster.catalog);
  std::vector<std::unique_ptr<Shard>> shards;
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    ServiceConfig service = service_base;
    service.shard_id = s;
    cluster.servers.push_back(
        std::make_unique<BundleServer>(service, *cluster.mss));
    shards.push_back(std::make_unique<FaultInjectionShard>(
        std::make_unique<LocalShard>(*cluster.servers.back())));
    cluster.faulty.push_back(
        static_cast<FaultInjectionShard*>(shards.back().get()));
  }
  cluster.router = std::make_unique<ClusterRouter>(
      config, cluster.catalog, service_base.cache_bytes, std::move(shards));
  return cluster;
}

ServiceConfig small_service() {
  ServiceConfig config;
  config.cache_bytes = 2000;
  config.time_scale = 0.0;
  return config;
}

/// down_threshold = 1 and a probe interval far past any test's runtime:
/// one NetError marks the shard down and it stays planned-around until
/// an explicit probe() -- no wall-clock dependence in assertions.
ClusterConfig faulty_config(std::uint32_t shards, PlacementMode placement) {
  ClusterConfig config;
  config.shards = shards;
  config.placement = placement;
  config.vnodes = 16;
  config.down_threshold = 1;
  config.probe_ms = 3'600'000;
  return config;
}

/// First file the placement maps to `shard`.
FileId file_on_shard(const Placement& placement, std::uint32_t shard,
                     std::size_t files) {
  for (FileId id = 0; id < files; ++id)
    if (placement.file_shard(id) == shard) return id;
  ADD_FAILURE() << "no file maps to shard " << shard;
  return 0;
}

std::uint64_t counter(const service::MetricsSnapshot& metrics,
                      const std::string& name) {
  for (const auto& [counter_name, value] : metrics.counters)
    if (counter_name == name) return value;
  return 0;
}

TEST(FaultInjectionShard, KillMakesEveryCallThrowUntilRevive) {
  ServiceConfig service = small_service();
  FileCatalog catalog(std::vector<Bytes>{100, 100});
  MassStorageSystem mss(default_tiers(), catalog);
  BundleServer server(service, mss);
  FaultInjectionShard shard(std::make_unique<LocalShard>(server));

  EXPECT_FALSE(shard.killed());
  const AcquireResult before = shard.acquire(Request({0}));
  EXPECT_EQ(before.status, AcquireStatus::Ok);

  shard.kill();
  EXPECT_TRUE(shard.killed());
  EXPECT_THROW((void)shard.acquire(Request({1})), service::NetError);
  EXPECT_THROW((void)shard.release(before.lease), service::NetError);
  EXPECT_THROW((void)shard.stats(), service::NetError);
  EXPECT_THROW((void)shard.metrics(), service::NetError);

  shard.revive();
  EXPECT_FALSE(shard.killed());
  EXPECT_TRUE(shard.release(before.lease));
  EXPECT_EQ(shard.stats().requests, 1u);
}

TEST(Failover, ConsecutiveNetErrorsMarkShardDownThenProbeRecovers) {
  ClusterConfig config = faulty_config(3, PlacementMode::HashFile);
  config.down_threshold = 3;
  FaultyCluster cluster = make_cluster(config, 48, small_service());
  cluster.kill(1);

  const FileId victim = file_on_shard(cluster.router->placement(), 1, 48);
  // Each acquire attempts the healthy-looking shard 1, eats the
  // NetError, and reroutes; the third failure crosses the threshold.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cluster.router->shard_down(1));
    const AcquireResult r = cluster.router->acquire(Request({victim}));
    EXPECT_EQ(r.status, AcquireStatus::Ok);
    EXPECT_TRUE(cluster.router->release(r.lease));
  }
  EXPECT_TRUE(cluster.router->shard_down(1));
  EXPECT_EQ(cluster.router->down_count(), 1u);
  EXPECT_EQ(cluster.router->info().shards_down, 1u);

  // Probing while still dead keeps it down; after revive it comes back.
  EXPECT_FALSE(cluster.router->probe(1));
  EXPECT_TRUE(cluster.router->shard_down(1));
  cluster.revive(1);
  EXPECT_TRUE(cluster.router->probe(1));
  EXPECT_FALSE(cluster.router->shard_down(1));
  EXPECT_EQ(cluster.router->down_count(), 0u);

  const service::MetricsSnapshot metrics = cluster.router->metrics();
  EXPECT_EQ(counter(metrics, "grid.shard.down"), 1u);
  EXPECT_EQ(counter(metrics, "grid.shard.recovered"), 1u);
  EXPECT_GE(counter(metrics, "grid.acquire.rerouted"), 3u);
}

TEST(Failover, AcquireReroutesAroundDeadShardAndCountsIt) {
  FaultyCluster cluster = make_cluster(
      faulty_config(3, PlacementMode::HashFile), 48, small_service());
  const FileId victim = file_on_shard(cluster.router->placement(), 2, 48);
  cluster.kill(2);

  const AcquireResult r = cluster.router->acquire(Request({victim}));
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  // The file is resident on some *live* shard now, not on the dead home.
  EXPECT_EQ(cluster.server(2).stats().requests, 0u);
  EXPECT_EQ(cluster.server(0).stats().requests +
                cluster.server(1).stats().requests,
            1u);
  EXPECT_GE(counter(cluster.router->metrics(), "grid.acquire.rerouted"), 1u);
  EXPECT_TRUE(cluster.router->release(r.lease));

  // Once marked down (threshold 1), later acquires plan around the dead
  // shard up front -- no second NetError round trip.
  EXPECT_TRUE(cluster.router->shard_down(2));
  const AcquireResult again = cluster.router->acquire(Request({victim}));
  ASSERT_EQ(again.status, AcquireStatus::Ok);
  EXPECT_TRUE(cluster.router->release(again.lease));
}

TEST(Failover, AffinityHomeDownFallsBackToHashPartition) {
  ClusterConfig config = faulty_config(3, PlacementMode::BundleAffinity);
  FaultyCluster cluster = make_cluster(config, 48, small_service());
  // Find a bundle homed on shard 0 under affinity.
  Request probe_request({0, 1});
  const PlacementPlan before = cluster.router->placement().plan(probe_request);
  ASSERT_EQ(before.parts.size(), 1u);
  const std::uint32_t home = before.parts[0].shard;

  cluster.kill(home);
  const AcquireResult r = cluster.router->acquire(probe_request);
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_EQ(cluster.server(home).stats().requests, 0u);
  EXPECT_GE(counter(cluster.router->metrics(), "grid.acquire.rerouted"), 1u);
  EXPECT_TRUE(cluster.router->release(r.lease));
}

TEST(Failover, AllShardsDownReturnsShardsDownStatus) {
  FaultyCluster cluster = make_cluster(
      faulty_config(2, PlacementMode::HashFile), 16, small_service());
  cluster.kill(0);
  cluster.kill(1);
  const AcquireResult r = cluster.router->acquire(Request({3}));
  EXPECT_EQ(r.status, AcquireStatus::ShardsDown);
  EXPECT_EQ(counter(cluster.router->metrics(), "grid.acquire.no_shard"), 1u);
  // Both shards are marked down after their first failed attempt.
  EXPECT_EQ(cluster.router->down_count(), 2u);
}

TEST(Failover, ScatterReleaseSurvivesDeadShardAndReleasesLiveParts) {
  // Regression for the scatter-release leak: release() used to erase the
  // scatter entry, then die on the first NetError -- every later part
  // stayed pinned forever with no record of it. Now all parts are
  // walked, live parts are released, and the dead shard's part is
  // deferred until recovery.
  FaultyCluster cluster = make_cluster(
      faulty_config(4, PlacementMode::HashFile), 64, small_service());
  const Placement& placement = cluster.router->placement();
  const Request bundle({file_on_shard(placement, 0, 64),
                        file_on_shard(placement, 1, 64),
                        file_on_shard(placement, 2, 64),
                        file_on_shard(placement, 3, 64)});
  const AcquireResult r = cluster.router->acquire(bundle);
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  ASSERT_EQ(cluster.router->scatter_leases(), 1u);
  for (std::size_t s = 0; s < 4; ++s)
    ASSERT_EQ(cluster.server(s).stats().active_leases, 1u);

  cluster.kill(2);
  EXPECT_TRUE(cluster.router->release(r.lease));
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
  // Every live part came home; only the dead shard's part is parked.
  EXPECT_EQ(cluster.server(0).stats().active_leases, 0u);
  EXPECT_EQ(cluster.server(1).stats().active_leases, 0u);
  EXPECT_EQ(cluster.server(3).stats().active_leases, 0u);
  EXPECT_EQ(cluster.router->pending_releases(), 1u);
  const service::MetricsSnapshot metrics = cluster.router->metrics();
  EXPECT_EQ(counter(metrics, "grid.release.partial"), 1u);
  EXPECT_EQ(counter(metrics, "grid.release.deferred"), 1u);

  // Recovery flushes the deferred part; nothing stays pinned anywhere.
  cluster.revive(2);
  EXPECT_TRUE(cluster.router->probe(2));
  EXPECT_EQ(cluster.router->pending_releases(), 0u);
  EXPECT_EQ(cluster.server(2).stats().active_leases, 0u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_TRUE(cluster.server(s).audit().empty());
}

TEST(Failover, SingleShardReleaseIsDeferredAndFlushedOnRecovery) {
  FaultyCluster cluster = make_cluster(
      faulty_config(3, PlacementMode::HashFile), 48, small_service());
  const FileId victim = file_on_shard(cluster.router->placement(), 1, 48);
  const AcquireResult r = cluster.router->acquire(Request({victim}));
  ASSERT_EQ(r.status, AcquireStatus::Ok);

  cluster.kill(1);
  // The release is accepted (deferred), not reported as unknown.
  EXPECT_TRUE(cluster.router->release(r.lease));
  EXPECT_EQ(cluster.router->pending_releases(), 1u);
  EXPECT_EQ(cluster.server(1).stats().active_leases, 1u);

  cluster.revive(1);
  EXPECT_TRUE(cluster.router->probe(1));
  EXPECT_EQ(cluster.router->pending_releases(), 0u);
  EXPECT_EQ(cluster.server(1).stats().active_leases, 0u);
  EXPECT_TRUE(cluster.server(1).audit().empty());
}

TEST(Failover, StatsAndMetricsSkipDeadShardInsteadOfThrowing) {
  // Regression: one dead shard used to take the whole cluster snapshot
  // down with it (fbcctl stats --watch died mid-restart).
  FaultyCluster cluster = make_cluster(
      faulty_config(3, PlacementMode::HashFile), 48, small_service());
  const AcquireResult r = cluster.router->acquire(Request({0, 1, 2, 3}));
  ASSERT_EQ(r.status, AcquireStatus::Ok);

  cluster.kill(1);
  service::ServiceStats stats{};
  EXPECT_NO_THROW(stats = cluster.router->stats());
  service::MetricsSnapshot metrics{};
  EXPECT_NO_THROW(metrics = cluster.router->metrics());
  // The skip is flagged, not silent.
  EXPECT_GE(counter(cluster.router->metrics(), "grid.stats.partial"), 2u);
  // Live shards still report: the cluster capacity covers two of three.
  EXPECT_EQ(stats.capacity_bytes, 2u * 2000u);

  cluster.revive(1);
  EXPECT_TRUE(cluster.router->probe(1));
  EXPECT_EQ(cluster.router->stats().capacity_bytes, 3u * 2000u);
  EXPECT_TRUE(cluster.router->release(r.lease));
}

TEST(Failover, RecoveredShardServesAgainWithoutRerouting) {
  FaultyCluster cluster = make_cluster(
      faulty_config(3, PlacementMode::HashFile), 48, small_service());
  const FileId victim = file_on_shard(cluster.router->placement(), 0, 48);
  cluster.kill(0);
  const AcquireResult while_down = cluster.router->acquire(Request({victim}));
  ASSERT_EQ(while_down.status, AcquireStatus::Ok);
  EXPECT_TRUE(cluster.router->release(while_down.lease));
  ASSERT_TRUE(cluster.router->shard_down(0));

  cluster.revive(0);
  EXPECT_TRUE(cluster.router->probe(0));
  const std::uint64_t rerouted_before =
      counter(cluster.router->metrics(), "grid.acquire.rerouted");
  const AcquireResult after = cluster.router->acquire(Request({victim}));
  ASSERT_EQ(after.status, AcquireStatus::Ok);
  // Home shard takes the request again; the reroute counter is flat.
  EXPECT_GE(cluster.server(0).stats().requests, 1u);
  EXPECT_EQ(counter(cluster.router->metrics(), "grid.acquire.rerouted"),
            rerouted_before);
  EXPECT_TRUE(cluster.router->release(after.lease));
}

TEST(Failover, KillReviveChurnUnderConcurrentTrafficLeavesNothingBehind) {
  // The router skips route_mu_ while no shard is troubled. Here one
  // shard flips between killed and alive while 4 threads acquire and
  // release, so the troubled flag is set and cleared under live traffic;
  // afterwards no release may be lost, no scatter lease left and no pin
  // leaked, and every down mark must have a matching recovery.
  ClusterConfig config = faulty_config(4, PlacementMode::HashFile);
  config.probe_ms = 0;  // a down shard is probed by every request
  constexpr std::size_t kFiles = 64;
  ServiceConfig service = small_service();
  service.cache_bytes = 4000;
  FaultyCluster cluster = make_cluster(config, kFiles, service);
  constexpr std::size_t kVictim = 1;

  // Each cycle kills the shard, waits until traffic has marked it down,
  // and revives it; the first kill lands before any client starts, so
  // the run sees at least one down mark.
  std::atomic<bool> running{true};
  cluster.kill(kVictim);
  std::thread chaos([&] {
    while (running.load(std::memory_order_acquire)) {
      while (!cluster.router->shard_down(kVictim) &&
             running.load(std::memory_order_acquire))
        std::this_thread::yield();
      cluster.revive(kVictim);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      cluster.kill(kVictim);
    }
  });
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::uint32_t x = t * 2654435761U + 7;
      for (int i = 0; i < 1500; ++i) {
        x = x * 1664525U + 1013904223U;
        std::vector<FileId> files{static_cast<FileId>((x >> 8) % kFiles)};
        if ((x >> 20) % 3 == 0)  // some bundles span two shards
          files.push_back(static_cast<FileId>((x >> 12) % kFiles));
        const AcquireResult r = cluster.router->acquire(Request(files));
        ASSERT_EQ(r.status, AcquireStatus::Ok) << to_string(r.status);
        granted.fetch_add(1, std::memory_order_relaxed);
        EXPECT_TRUE(cluster.router->release(r.lease));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  running.store(false, std::memory_order_release);
  chaos.join();

  cluster.revive(kVictim);
  ASSERT_TRUE(cluster.router->probe(kVictim));
  EXPECT_FALSE(cluster.router->shard_down(kVictim));
  EXPECT_EQ(cluster.router->pending_releases(), 0u);
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
  for (std::size_t s = 0; s < cluster.servers.size(); ++s) {
    EXPECT_TRUE(cluster.server(s).audit().empty()) << "shard " << s;
    EXPECT_EQ(cluster.server(s).metrics().stats.active_leases, 0u)
        << "shard " << s;
  }
  const service::MetricsSnapshot m = cluster.router->metrics();
  EXPECT_GT(counter(m, "grid.shard.down"), 0u);
  EXPECT_EQ(counter(m, "grid.shard.down"), counter(m, "grid.shard.recovered"));
  EXPECT_EQ(granted.load(), 4u * 1500u);
}

}  // namespace
}  // namespace fbc::cluster
