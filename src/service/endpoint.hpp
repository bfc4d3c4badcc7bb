// ServingEndpoint: the transport-facing interface of anything that can
// answer the wire protocol's request messages.
//
// BundleDaemon serves *an endpoint*, not a BundleServer: the same event
// loops front either a single shard (fbcd) or a ClusterRouter
// fanning out to N shards (fbcgrid). Everything the daemon needs --
// acquire/release forwarding, metrics snapshots, identity for
// HelloRequest (whose shard count also sizes its loops), and
// close-on-shutdown -- goes through this interface, so
// acquire/release frames are forwardable to whatever sits behind it.
#pragma once

#include <cstdint>

#include "cache/types.hpp"
#include "service/protocol.hpp"

namespace fbc::service {

/// Result of a (possibly forwarded) acquire call.
struct AcquireResult {
  AcquireStatus status = AcquireStatus::Ok;
  LeaseId lease = 0;
  bool request_hit = false;
  std::uint32_t retry_after_ms = 0;
  std::uint32_t retries = 0;
};

/// Identity reported in a HelloReply (see protocol.hpp). `shards_down`
/// is the router's live count of shards currently marked down (0 for a
/// standalone shard) -- the wire-visible health signal fbcctl surfaces.
struct EndpointInfo {
  EndpointRole role = EndpointRole::Shard;
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t shards_down = 0;
};

/// Abstract serving endpoint (see file comment). Implementations must be
/// thread-safe: the daemon calls inline from its event-loop threads, and a
/// call that waits keeps running on its thread while a standby takes the
/// loop over (service/blocking.hpp), so calls overlap. A wait that can
/// outlast the call's own work must sit in a BlockingRegion, or it stalls
/// every connection of its loop until it ends.
class ServingEndpoint {
 public:
  virtual ~ServingEndpoint() = default;

  /// Blocks until the bundle is leased or the acquire fails; `request`
  /// must stay alive for the duration of the call.
  virtual AcquireResult acquire(const Request& request) = 0;

  /// Returns false for an unknown (or already released) lease.
  virtual bool release(LeaseId lease) = 0;

  [[nodiscard]] virtual MetricsSnapshot metrics() const = 0;

  /// The stats block of metrics(). Only ledger/seams.hpp overrides this;
  /// delete the virtual and that override together, like legacy_wire().
  [[nodiscard]] virtual ServiceStats stats() const { return metrics().stats; }

  /// Identity for HelloReply frames.
  [[nodiscard]] virtual EndpointInfo info() const = 0;

  /// Nothing reads this. It stays only because ledger/seams.hpp
  /// overrides it; delete both together.
  [[nodiscard]] virtual bool legacy_wire() const { return false; }

  /// Wakes every queued waiter with Closed and rejects future acquires;
  /// release/metrics keep working so draining clients can finish.
  virtual void close() = 0;
};

}  // namespace fbc::service
