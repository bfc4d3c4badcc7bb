// ClusterRouter: one ServingEndpoint fronting N BundleServer shards.
//
// Acquire flow:
//   1. Placement splits the bundle into per-shard sub-requests, skipping
//      shards currently marked down (degraded placement -- see below).
//   2. Single part  -> forward to its shard; the shard lease comes back
//      tagged with the shard index in the top byte (lock-free fast path).
//   3. Several parts -> scatter: acquire on each shard in increasing
//      shard order. The cluster grant is the *conjunction* of per-shard
//      grants -- if any shard refuses (QueueFull, Timeout, ...), every
//      sub-lease already granted is rolled back (released) and the
//      client sees the failing shard's status with no residual pins.
//      Gathered grants are recorded in a scatter-lease map under
//      route_mu_ and released shard-by-shard on release().
//
// Shard health: a shard whose call throws NetError `down_threshold`
// consecutive times is marked down. Down shards are planned around --
// requests re-route to the next live shard on the consistent-hash ring
// (affinity bundles fall back to their hash partition) and a NetError
// mid-acquire triggers a transparent re-plan, so clients never see a
// dead shard as anything but a reroute. Every `probe_ms` one request is
// let through to the dead shard as an opportunistic recovery probe (its
// failure is invisible: the router just reroutes again); the first
// successful call marks the shard up and flushes releases deferred while
// it was gone. probe() forces such a probe explicitly.
//
// Releases that cannot reach their shard are *deferred*, not dropped:
// the lease id is parked under route_mu_ and replayed when the shard
// recovers, so a shard crash never leaks pins held on survivors and a
// rebooted shard that kept its state is fully drained.
//
// Lease encoding: the top byte of a router LeaseId is shard index + 1
// for single-shard leases (release needs no router state), and 0 for
// scatter leases (dense ids into the scatter map). Shards themselves
// allocate small dense ids, so the top byte is free in practice; the
// router rejects a shard lease that collides with the tag space.
//
// Healthy path: while no shard has a failure streak, a down mark or a
// parked release, an atomic flag (troubled_) stays clear and routing,
// release and health accounting read nothing under route_mu_; a
// single-shard acquire plus release then takes no router-wide lock. The
// grid.* counters are relaxed atomics.
//
// Lock level: route_mu_ = 5 sits *below* every server-internal level
// (BundleServer::mu_ = 10...) in the documented hierarchy, so holding it
// while calling into a shard would be legal; the router still never
// does -- shard calls block on staging I/O, and no lock should span them.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/catalog.hpp"
#include "cluster/config.hpp"
#include "cluster/placement.hpp"
#include "cluster/shard.hpp"
#include "service/endpoint.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::cluster {

/// Routes acquire/release over N shards; implements ServingEndpoint so a
/// BundleDaemon can serve a whole cluster on one port.
class ClusterRouter final : public service::ServingEndpoint {
 public:
  /// `shards.size()` must equal `config.shards` (1..128). `catalog` must
  /// outlive the router; `shard_capacity` is one shard's cache size (the
  /// affinity spill threshold is relative to it).
  ClusterRouter(const ClusterConfig& config, const FileCatalog& catalog,
                Bytes shard_capacity,
                std::vector<std::unique_ptr<Shard>> shards);

  ~ClusterRouter() override;

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  service::AcquireResult acquire(const Request& request) override;
  bool release(LeaseId lease) override;

  /// Merged per-shard snapshots plus the router's own grid.* counters.
  /// The stats block is the field-wise sum (capacity_bytes is the cluster
  /// total); scattered acquires count once per touched shard. Shards
  /// that are down (or fail the snapshot call) are skipped and flagged
  /// under grid.stats.partial instead of failing the whole snapshot.
  [[nodiscard]] service::MetricsSnapshot metrics() const override;

  [[nodiscard]] service::EndpointInfo info() const override {
    return {service::EndpointRole::Router, 0,
            static_cast<std::uint32_t>(shards_.size()), down_count()};
  }

  /// Closes every shard and fails subsequent acquires.
  void close() override;

  /// The placement function (exposed so tests and the fuzz oracle can
  /// predict routing without reaching into the router).
  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }

  /// Shard `index`, for per-shard audits in tests.
  [[nodiscard]] Shard& shard(std::size_t index) { return *shards_.at(index); }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Scatter leases currently outstanding (router-held state; single-
  /// shard leases are stateless here).
  [[nodiscard]] std::size_t scatter_leases() const;

  /// Whether shard `index` is currently marked down.
  [[nodiscard]] bool shard_down(std::size_t index) const;

  /// Shards currently marked down.
  [[nodiscard]] std::uint32_t down_count() const;

  /// Releases deferred for down shards, awaiting recovery flush.
  [[nodiscard]] std::size_t pending_releases() const;

  /// Forces a recovery probe of shard `index` (one metrics round trip),
  /// regardless of the probe_ms schedule: on success the shard is marked
  /// up and its deferred releases are flushed. Returns true when the
  /// shard is up afterwards. The replay harnesses use this to make
  /// recovery deterministic; fbcgrid could drive it from a supervisor.
  bool probe(std::size_t index);

 private:
  using Clock = std::chrono::steady_clock;

  /// Thrown internally when a shard call dies with NetError; carries the
  /// shard index so acquire() can exclude it and re-plan. Never escapes
  /// the router.
  struct ShardUnreachable {
    std::uint32_t shard;
  };

  /// Top byte of a LeaseId: shard index + 1, or 0 for scatter leases.
  static constexpr int kShardShift = 56;
  static constexpr LeaseId kPayloadMask = (LeaseId{1} << kShardShift) - 1;

  service::AcquireResult acquire_single(const SubRequest& part);
  service::AcquireResult acquire_scatter(const PlacementPlan& plan);

  /// One shard acquire with health accounting: success (any status)
  /// resets the failure streak, NetError becomes ShardUnreachable.
  service::AcquireResult shard_acquire(std::uint32_t shard,
                                       const Request& request);

  /// Delivers one sub-release, deferring it if the shard is down or the
  /// call dies with NetError. Returns true when delivered; `*ok`
  /// receives the shard's verdict (valid only when delivered).
  bool try_release(std::uint32_t shard, LeaseId lease, bool* ok) const;

  /// Routable shards: up, or down with a probe slot claimed, minus
  /// `excluded` (shards that already failed this request).
  [[nodiscard]] std::vector<bool> routable_snapshot(
      const std::vector<bool>& excluded) const;

  /// Whether a non-acquire call (release/metrics) should attempt this
  /// shard now: up, or down with a probe slot claimed.
  [[nodiscard]] bool should_attempt(std::uint32_t shard) const;

  /// Health accounting around every shard round trip. record_success
  /// resets the failure streak and, on a down -> up transition, flushes
  /// the shard's deferred releases. record_failure marks the shard down
  /// (and drops its connection pool) after down_threshold consecutive
  /// NetErrors.
  void record_success(std::uint32_t shard) const;
  void record_failure(std::uint32_t shard) const;

  /// Parks a release for a currently unreachable shard (replayed by
  /// record_success on recovery).
  void defer_release(std::uint32_t shard, LeaseId lease) const;

  /// Re-derives troubled_ from health_ and pending_release_; called after
  /// every change to either.
  // fbc:requires(route_mu_)
  void refresh_troubled_locked() const;

  /// Router-level counters (job-level view, vs the shards' sub-request
  /// view). metrics() exports grid_counters_[c] as kGridCounterNames[c]
  /// once it is non-zero, exactly as a name-keyed registry bumped by one
  /// would.
  enum GridCounter : std::size_t {
    kAcquireNoShard,
    kAcquireRerouted,
    kAcquireRollback,
    kAcquireScatter,
    kAcquireSingle,
    kReleaseDeferred,
    kReleasePartial,
    kReleaseUnknown,
    kShardDown,
    kShardRecovered,
    kStatsPartial,
    kGridCounterCount
  };
  static const std::array<std::string_view, kGridCounterCount>
      kGridCounterNames;

  void bump(GridCounter counter) const {
    grid_counters_[counter].fetch_add(1, std::memory_order_relaxed);
  }

  ClusterConfig config_;
  Placement placement_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> closed_{false};

  /// Per-shard health (guarded by route_mu_): consecutive NetErrors,
  /// down flag, and the next probe admission time while down.
  struct ShardHealth {
    std::uint32_t consecutive = 0;
    bool down = false;
    Clock::time_point next_probe{};
  };

  // Scatter-lease table, shard health, and deferred releases: held only
  // over map/vector ops, never across shard calls.
  // fbc:lock-level(5)
  // fbc:guards(scatter_)
  // fbc:guards(next_scatter_id_)
  // fbc:guards(health_)
  // fbc:guards(pending_release_)
  mutable OrderedMutex route_mu_{5, "ClusterRouter::route_mu_"};
  std::unordered_map<LeaseId, std::vector<std::pair<std::uint32_t, LeaseId>>>
      scatter_;
  LeaseId next_scatter_id_ = 1;
  mutable std::vector<ShardHealth> health_;
  mutable std::vector<std::vector<LeaseId>> pending_release_;
  /// True while some shard has a failure streak, a down mark or a parked
  /// release. Stored only under route_mu_ (refresh_troubled_locked); read
  /// without it. While clear, routable_snapshot, should_attempt and
  /// record_success have nothing to read or reset and skip route_mu_. A
  /// reader that saw it clear acted before the trouble, which the locked
  /// path would also allow.
  mutable std::atomic<bool> troubled_{false};

  mutable std::array<std::atomic<std::uint64_t>, kGridCounterCount>
      grid_counters_{};
};

}  // namespace fbc::cluster
