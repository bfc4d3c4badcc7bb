#include "cluster/router.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "cluster/stats.hpp"
#include "obs/counter.hpp"
#include "service/net.hpp"

namespace fbc::cluster {

ClusterRouter::ClusterRouter(const ClusterConfig& config,
                             const FileCatalog& catalog, Bytes shard_capacity,
                             std::vector<std::unique_ptr<Shard>> shards)
    : config_(config),
      placement_(config, catalog, shard_capacity),
      shards_(std::move(shards)) {
  if (shards_.empty() || shards_.size() > 128)
    throw std::invalid_argument("ClusterRouter: shard count must be 1..128");
  if (shards_.size() != config_.shards)
    throw std::invalid_argument(
        "ClusterRouter: shards vector does not match config.shards");
  for (const auto& shard : shards_)
    if (shard == nullptr)
      throw std::invalid_argument("ClusterRouter: null shard");
  health_.resize(shards_.size());
  pending_release_.resize(shards_.size());
}

ClusterRouter::~ClusterRouter() { close(); }

constexpr std::array<std::string_view, ClusterRouter::kGridCounterCount>
    ClusterRouter::kGridCounterNames = {
        "grid.acquire.no_shard", "grid.acquire.rerouted",
        "grid.acquire.rollback", "grid.acquire.scatter",
        "grid.acquire.single",   "grid.release.deferred",
        "grid.release.partial",  "grid.release.unknown",
        "grid.shard.down",       "grid.shard.recovered",
        "grid.stats.partial",
};

void ClusterRouter::refresh_troubled_locked() const {
  bool troubled = false;
  for (std::size_t s = 0; s < shards_.size() && !troubled; ++s) {
    const ShardHealth& h = health_[s];
    troubled = h.consecutive != 0 || h.down || !pending_release_[s].empty();
  }
  troubled_.store(troubled, std::memory_order_release);
}

std::vector<bool> ClusterRouter::routable_snapshot(
    const std::vector<bool>& excluded) const {
  if (!troubled_.load(std::memory_order_acquire)) {
    std::vector<bool> live(excluded);
    live.flip();
    return live;
  }
  const Clock::time_point now = Clock::now();
  std::vector<bool> live(shards_.size(), false);
  std::lock_guard<OrderedMutex> lock(route_mu_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (excluded[s]) continue;
    ShardHealth& h = health_[s];
    if (!h.down) {
      live[s] = true;
    } else if (config_.probe_ms == 0 || now >= h.next_probe) {
      // Claim the probe slot: this request is routed at the dead shard
      // as an opportunistic probe, and the next one waits probe_ms so a
      // burst does not pile onto a dead daemon.
      h.next_probe = now + std::chrono::milliseconds(config_.probe_ms);
      live[s] = true;
    }
  }
  return live;
}

bool ClusterRouter::should_attempt(std::uint32_t shard) const {
  if (!troubled_.load(std::memory_order_acquire)) return true;
  const Clock::time_point now = Clock::now();
  std::lock_guard<OrderedMutex> lock(route_mu_);
  ShardHealth& h = health_[shard];
  if (!h.down) return true;
  if (config_.probe_ms == 0 || now >= h.next_probe) {
    h.next_probe = now + std::chrono::milliseconds(config_.probe_ms);
    return true;
  }
  return false;
}

void ClusterRouter::record_success(std::uint32_t shard) const {
  // No streak, down mark or parked release anywhere: nothing to reset.
  if (!troubled_.load(std::memory_order_acquire)) return;
  std::vector<LeaseId> pending;
  bool recovered = false;
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    ShardHealth& h = health_[shard];
    h.consecutive = 0;
    if (h.down) {
      h.down = false;
      recovered = true;
    }
    // Releases can be parked below down_threshold too (a single NetError
    // defers), so any proven-reachable shard drains its queue -- not just
    // a down -> up transition.
    pending = std::move(pending_release_[shard]);
    pending_release_[shard].clear();
    refresh_troubled_locked();
  }
  if (recovered) bump(kShardRecovered);
  if (pending.empty()) return;
  // Flush releases deferred while the shard was gone. A rebooted shard
  // that lost its lease table answers false (counted unknown below via
  // the shard itself); one that kept state is fully drained. A NetError
  // mid-flush re-parks the rest.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    try {
      (void)shards_[shard]->release(pending[i]);
    } catch (const service::NetError&) {
      for (std::size_t j = i; j < pending.size(); ++j)
        defer_release(shard, pending[j]);
      record_failure(shard);
      return;
    }
  }
}

void ClusterRouter::record_failure(std::uint32_t shard) const {
  bool went_down = false;
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    ShardHealth& h = health_[shard];
    ++h.consecutive;
    if (!h.down && h.consecutive >= config_.down_threshold) {
      h.down = true;
      h.next_probe =
          Clock::now() + std::chrono::milliseconds(config_.probe_ms);
      went_down = true;
    }
    refresh_troubled_locked();
  }
  if (!went_down) return;
  bump(kShardDown);
  // Pooled connections to a crashed daemon are all poisoned; drop them
  // so the recovery probe dials fresh.
  shards_[shard]->invalidate_pool();
}

void ClusterRouter::defer_release(std::uint32_t shard, LeaseId lease) const {
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    pending_release_[shard].push_back(lease);
    refresh_troubled_locked();
  }
  bump(kReleaseDeferred);
}

service::AcquireResult ClusterRouter::shard_acquire(std::uint32_t shard,
                                                    const Request& request) {
  service::AcquireResult result;
  try {
    result = shards_[shard]->acquire(request);
  } catch (const service::NetError&) {
    throw ShardUnreachable{shard};
  }
  // Any completed round trip is a health success, whatever the verdict
  // (QueueFull from a live shard is backpressure, not death).
  record_success(shard);
  return result;
}

service::AcquireResult ClusterRouter::acquire(const Request& request) {
  if (closed_.load(std::memory_order_acquire))
    return {service::AcquireStatus::Closed, 0, false, 0, 0};
  if (request.empty())
    return {service::AcquireStatus::InvalidRequest, 0, false, 0, 0};
  Request canonical = request;
  canonical.canonicalize();

  // Re-plan loop: a NetError out of a shard excludes it (for this
  // request) and re-routes the remainder to the live shards. Each shard
  // can fail at most once per request, so shards_.size() + 1 attempts
  // bound the loop even if every shard dies mid-flight.
  std::vector<bool> excluded(shards_.size(), false);
  bool rerouted = false;
  for (std::size_t attempt = 0; attempt <= shards_.size(); ++attempt) {
    const std::vector<bool> live = routable_snapshot(excluded);
    const PlacementPlan plan = placement_.plan(canonical, live);
    if (plan.parts.empty()) break;  // no live shard left
    if (plan.rerouted && !rerouted) {
      rerouted = true;
      bump(kAcquireRerouted);
    }
    try {
      return plan.split() ? acquire_scatter(plan)
                          : acquire_single(plan.parts.front());
    } catch (const ShardUnreachable& dead) {
      record_failure(dead.shard);
      excluded[dead.shard] = true;
      if (!rerouted) {
        rerouted = true;
        bump(kAcquireRerouted);
      }
    }
  }
  bump(kAcquireNoShard);
  return {service::AcquireStatus::ShardsDown, 0, false, 0, 0};
}

service::AcquireResult ClusterRouter::acquire_single(const SubRequest& part) {
  service::AcquireResult result = shard_acquire(part.shard, part.request);
  if (result.status == service::AcquireStatus::Ok) {
    if ((result.lease & ~kPayloadMask) != 0)
      throw std::runtime_error(
          "ClusterRouter: shard lease id overflows the router tag byte");
    result.lease |= static_cast<LeaseId>(part.shard + 1) << kShardShift;
  }
  bump(kAcquireSingle);
  return result;
}

service::AcquireResult ClusterRouter::acquire_scatter(
    const PlacementPlan& plan) {
  // The cluster grant is the conjunction of per-shard grants. Sub-acquires
  // run in increasing shard order (plan.parts is sorted), so two split
  // bundles contending for the same shards serialize instead of
  // deadlocking on each other's partial grants.
  std::vector<std::pair<std::uint32_t, LeaseId>> granted;
  granted.reserve(plan.parts.size());
  auto rollback = [&]() noexcept {
    // Newest grant first; a shard that died mid-rollback gets its
    // release deferred so the pin is reclaimed on recovery.
    for (auto it = granted.rbegin(); it != granted.rend(); ++it) {
      try {
        shards_[it->first]->release(it->second);
      } catch (const service::NetError&) {
        defer_release(it->first, it->second);
      } catch (...) {
      }
    }
    bump(kAcquireRollback);
  };

  service::AcquireResult gathered;
  gathered.status = service::AcquireStatus::Ok;
  gathered.request_hit = true;
  for (const SubRequest& part : plan.parts) {
    service::AcquireResult result;
    try {
      result = shard_acquire(part.shard, part.request);
    } catch (const ShardUnreachable&) {
      rollback();
      throw;  // acquire() re-plans around the dead shard
    } catch (...) {
      rollback();
      throw;
    }
    if (result.status != service::AcquireStatus::Ok) {
      rollback();
      // The client sees the failing shard's verdict with no residual
      // pins anywhere.
      result.lease = 0;
      result.request_hit = false;
      return result;
    }
    granted.emplace_back(part.shard, result.lease);
    // The cluster-level request is a hit only if every slice was.
    gathered.request_hit = gathered.request_hit && result.request_hit;
    gathered.retries += result.retries;
  }

  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    LeaseId id = next_scatter_id_++;
    if ((id & ~kPayloadMask) != 0)
      throw std::runtime_error("ClusterRouter: scatter lease ids exhausted");
    scatter_.emplace(id, std::move(granted));
    gathered.lease = id;  // top byte 0 == scatter tag
  }
  bump(kAcquireScatter);
  return gathered;
}

bool ClusterRouter::try_release(std::uint32_t shard, LeaseId lease,
                                bool* ok) const {
  if (!should_attempt(shard)) {
    // Down and no probe due: park the release instead of hammering a
    // dead daemon. The lease is replayed on recovery.
    defer_release(shard, lease);
    return false;
  }
  try {
    *ok = shards_[shard]->release(lease);
  } catch (const service::NetError&) {
    record_failure(shard);
    defer_release(shard, lease);
    return false;
  }
  record_success(shard);
  return true;
}

bool ClusterRouter::release(LeaseId lease) {
  const std::uint64_t tag = lease >> kShardShift;
  if (tag != 0) {
    const std::size_t shard = static_cast<std::size_t>(tag) - 1;
    if (shard >= shards_.size()) {
      bump(kReleaseUnknown);
      return false;
    }
    bool ok = false;
    if (!try_release(static_cast<std::uint32_t>(shard), lease & kPayloadMask,
                     &ok)) {
      // Deferred: the pin is safe and will be reclaimed on recovery, so
      // the client's release is accepted.
      bump(kReleasePartial);
      return true;
    }
    if (!ok) bump(kReleaseUnknown);
    return ok;
  }
  std::vector<std::pair<std::uint32_t, LeaseId>> parts;
  bool known = false;
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    auto it = scatter_.find(lease);
    if (it != scatter_.end()) {
      known = true;
      parts = std::move(it->second);
      scatter_.erase(it);
    }
  }
  if (!known) {
    bump(kReleaseUnknown);
    return false;
  }
  // Every part is attempted even if one shard throws mid-loop (the old
  // code let the exception escape here, leaking the remaining shards'
  // pins forever -- the scatter entry was already erased above).
  bool all_ok = true;
  bool partial = false;
  for (const auto& [shard, sub_lease] : parts) {
    bool ok = false;
    if (try_release(shard, sub_lease, &ok))
      all_ok = ok && all_ok;
    else
      partial = true;  // deferred, not lost
  }
  if (partial) bump(kReleasePartial);
  return all_ok;
}

service::MetricsSnapshot ClusterRouter::metrics() const {
  std::vector<service::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  std::size_t skipped = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!should_attempt(static_cast<std::uint32_t>(s))) {
      ++skipped;
      continue;
    }
    try {
      per_shard.push_back(shards_[s]->metrics());
    } catch (const service::NetError&) {
      record_failure(static_cast<std::uint32_t>(s));
      ++skipped;
      continue;
    }
    record_success(static_cast<std::uint32_t>(s));
  }
  if (skipped != 0) bump(kStatsPartial);
  service::MetricsSnapshot merged = merge_metrics(per_shard);
  // Fold the router's own counters in, keeping the name list sorted.
  obs::CounterRegistry all;
  for (const obs::CounterSample& c : merged.counters) all.add(c.first, c.second);
  static_assert(std::ranges::none_of(kGridCounterNames,
                                     &std::string_view::empty),
                "every GridCounter needs a name in kGridCounterNames");
  for (std::size_t c = 0; c < kGridCounterCount; ++c)
    if (const std::uint64_t v =
            grid_counters_[c].load(std::memory_order_relaxed))
      all.add(kGridCounterNames[c], v);
  merged.counters = all.snapshot();
  return merged;
}

void ClusterRouter::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (const auto& shard : shards_) {
    try {
      shard->close();
    } catch (const service::NetError&) {
      // A dead shard cannot be told to close; its daemon (if any) is
      // already gone and reclaims leases itself.
    }
  }
}

std::size_t ClusterRouter::scatter_leases() const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  return scatter_.size();
}

bool ClusterRouter::shard_down(std::size_t index) const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  return health_.at(index).down;
}

std::uint32_t ClusterRouter::down_count() const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  std::uint32_t down = 0;
  for (const ShardHealth& h : health_)
    if (h.down) ++down;
  return down;
}

std::size_t ClusterRouter::pending_releases() const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  std::size_t total = 0;
  for (const std::vector<LeaseId>& p : pending_release_) total += p.size();
  return total;
}

bool ClusterRouter::probe(std::size_t index) {
  try {
    (void)shards_.at(index)->stats();
  } catch (const service::NetError&) {
    record_failure(static_cast<std::uint32_t>(index));
    return false;
  }
  record_success(static_cast<std::uint32_t>(index));
  return true;
}

}  // namespace fbc::cluster
