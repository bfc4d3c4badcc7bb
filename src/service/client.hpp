// BundleClient: one synchronous connection to a BundleDaemon.
//
// The client speaks the strict request/reply discipline the daemon
// enforces, so a single BundleClient must not be shared across threads --
// open one per worker (fbcload does exactly that).
#pragma once

#include <cstdint>
#include <vector>

#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace fbc::service {

/// Synchronous wire-protocol client (one connection, one thread).
class BundleClient {
 public:
  /// Connects to a daemon on 127.0.0.1:`port`. Throws NetError on refusal.
  explicit BundleClient(std::uint16_t port);

  /// Requests a lease on `files`. Blocks until the daemon replies (which
  /// may take the server-side queue wait plus staging time).
  /// Throws NetError/ProtocolError if the connection breaks.
  [[nodiscard]] AcquireResult acquire(const std::vector<FileId>& files);

  /// Releases a lease. Returns false for ids the server does not know.
  bool release(LeaseId lease);

  /// Pipelines release(lease) + acquire(files) into one wire round trip:
  /// both request frames are written back-to-back, then both replies are
  /// read in order. The daemon handles a connection's messages strictly
  /// sequentially, so the release is fully applied before the acquire is
  /// considered -- semantically identical to release() then acquire(),
  /// minus one network round trip, which is the dominant per-job cost of
  /// the serving hot path for small bundles. `released` (optional)
  /// receives the release outcome.
  [[nodiscard]] AcquireResult release_acquire(
      LeaseId lease, const std::vector<FileId>& files,
      bool* released = nullptr);

  /// Fetches the server's full observability snapshot (stats, counters,
  /// per-stage histograms). Histograms arrive validated: the decoder
  /// rejects inconsistent bucket state as a ProtocolError.
  [[nodiscard]] MetricsSnapshot metrics();

  /// Asks the endpoint who it is (shard vs router, shard id/count).
  [[nodiscard]] HelloReplyMsg hello();

  /// Drops the current connection (if any) and dials the same port
  /// again, resetting the buffered reader so no stale reply bytes
  /// survive. Throws NetError if the daemon is not back yet -- callers
  /// (fbcctl --watch) retry on their own schedule. Held leases on the
  /// old connection are reclaimed server-side.
  void reconnect();

  /// The port this client dials (the reconnect target).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  /// Sends `request` and reads the single reply frame.
  Message round_trip(const Message& request);

  /// Reads one reply frame.
  std::optional<Message> read_reply();

  UniqueFd fd_;
  std::uint16_t port_ = 0;
  FrameReader reader_;  ///< buffered: batched replies cost one recv
  std::vector<std::uint8_t> send_buf_;  ///< reused burst-encode scratch
  std::uint64_t next_cookie_ = 1;
};

}  // namespace fbc::service
