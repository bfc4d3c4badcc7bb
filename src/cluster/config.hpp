// ClusterConfig: knobs for the sharded serving cluster (fbcgrid).
//
// A cluster is N BundleServer shards behind one ClusterRouter. The config
// picks how bundles map to shards (placement strategy), when an affinity
// bundle is too big for one shard and must scatter (spill_threshold), and
// whether the shared MSS grows replica sites for replica-aware fetch.
//
// Lives in namespace fbc::cluster -- fbc::ClusterConfig (grid/cluster.hpp)
// is the *simulation*-level multi-site model; this one configures the
// live serving cluster. Every field is a flag through the row list
// kClusterFlags in tools/serving_common.hpp, whose arity check fails the
// build when a field here has no row.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace fbc::cluster {

/// How the router maps a bundle onto shards.
enum class PlacementMode : std::uint8_t {
  /// Partition every bundle file-by-file over a consistent-hash ring:
  /// each file has one home shard regardless of which bundle asks for it,
  /// so no file is ever cached twice, but most bundles scatter.
  HashFile,
  /// Hash the *canonical file set* to pick one home shard for the whole
  /// bundle: the job's files are co-located, acquire stays single-shard
  /// (one lease, no cross-shard conjunction), at the cost of popular
  /// files being duplicated on several shards. Bundles bigger than
  /// spill_threshold x shard capacity fall back to HashFile scatter.
  BundleAffinity,
};

/// Parses "hash" | "affinity" (the --placement flag values).
inline PlacementMode parse_placement(const std::string& name) {
  if (name == "hash") return PlacementMode::HashFile;
  if (name == "affinity") return PlacementMode::BundleAffinity;
  throw std::invalid_argument("unknown placement mode: " + name +
                              " (expected affinity|hash)");
}

inline const char* to_string(PlacementMode mode) noexcept {
  switch (mode) {
    case PlacementMode::HashFile:
      return "hash";
    case PlacementMode::BundleAffinity:
      return "affinity";
  }
  return "?";
}

/// Configuration for one ClusterRouter and the shards behind it.
struct ClusterConfig {
  /// BundleServer shards behind the router.
  std::uint32_t shards = 4;

  /// Bundle placement strategy.
  PlacementMode placement = PlacementMode::BundleAffinity;

  /// Affinity bundles whose bytes exceed this fraction of one shard's
  /// cache capacity scatter file-by-file instead (a bundle near shard
  /// capacity would evict everything its home shard holds; splitting it
  /// is the lesser evil -- ISSUE calls this the split-bundle fallback).
  double spill_threshold = 0.5;

  /// Consistent-hash virtual nodes per shard: more vnodes = smoother
  /// file distribution, slightly larger ring.
  std::uint32_t vnodes = 64;

  /// Extra MSS replica sites for replica-aware fetch (0 = plain MSS).
  std::uint32_t replica_sites = 0;

  /// Hottest files replicated to every replica site before serving.
  std::uint32_t replicate_hot = 0;

  /// Idle connections a RemoteShard keeps per shard daemon. Checkins past
  /// the cap drop the connection instead of pooling it, so a burst of
  /// concurrent acquires cannot grow the pool without bound.
  std::size_t remote_pool_cap = 8;

  /// Consecutive NetError failures after which the router marks a shard
  /// down and stops routing requests to it (degraded placement).
  std::uint32_t down_threshold = 3;

  /// Milliseconds between recovery probes of a down shard. One request
  /// per interval is routed at the dead shard as an opportunistic probe
  /// (a failure just re-routes, so clients never see it). 0 probes on
  /// every request -- deterministic, used by the replay harnesses.
  std::uint64_t probe_ms = 500;
};

}  // namespace fbc::cluster
