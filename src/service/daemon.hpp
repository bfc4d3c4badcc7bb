// BundleDaemon: serves the wire protocol over loopback TCP on top of a
// ServingEndpoint (a single BundleServer, or a ClusterRouter fanning out
// to N shards -- the daemon sees only the ServingEndpoint interface).
//
// Epoll loops over non-blocking sockets serve every connection: one loop
// for a BundleServer, whose decisions all serialize on its mutex anyway,
// and one per worker for a router, whose calls run under its shards'
// separate locks. Each loop holds the listener and a round-robin share of
// the connections, and at most one thread runs a given loop at any time.
// For each ready connection a loop reads what the socket holds,
// calls the endpoint inline for every complete frame, and writes that
// burst's replies with one send. Bytes the socket does not take wait in
// the connection's outbox, armed for EPOLLOUT, and the loop reads nothing
// more from that connection until the outbox drains -- a client that
// never reads cannot stall anyone else.
//
// A call that must wait (service/blocking.hpp marks those waits) would
// stall every connection of its loop, so when a loop thread enters one it
// takes its connection out of the epoll set and wakes a standby thread,
// which takes the loop over. The waiting thread then finishes its burst,
// re-arms the connection and becomes a standby. A loop that serves only
// the waiting connection is kept instead, marked away so that new
// connections go to the other loops; a lone loop always hands off. The
// daemon runs a thread per loop plus `workers` - 1 standbys, so that many
// calls can wait with every loop served, whatever the open connections.
//
// Each connection is a strict request/reply stream: replies leave in
// request order. Leases granted over a connection that disconnects
// without releasing them are auto-released, so a crashed client can never
// wedge the cache with orphaned pins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "service/endpoint.hpp"
#include "service/net.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::service {

/// TCP front-end for one ServingEndpoint.
class BundleDaemon {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  /// `endpoint` must outlive the daemon. `workers` (at least 1) threads
  /// take turns running the loops; see the file comment.
  BundleDaemon(ServingEndpoint& endpoint, std::uint16_t port,
               std::size_t workers);

  /// Stops serving, closes the listener and every connection, joins.
  ~BundleDaemon();

  BundleDaemon(const BundleDaemon&) = delete;
  BundleDaemon& operator=(const BundleDaemon&) = delete;

  /// The bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Total connections ever accepted.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Leases auto-released because their connection died holding them.
  [[nodiscard]] std::uint64_t leases_reclaimed() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  /// Initiates shutdown (idempotent; the destructor calls it too).
  void stop();

 private:
  struct Connection;
  class Turn;

  /// One epoll set and the connections dealt to it.
  struct Loop {
    UniqueFd epoll_fd;
    /// Twice the connections dealt here, plus kAway while the loop's
    /// runner waits in a call without handing the loop off.
    std::atomic<std::uint32_t> state{0};
  };
  static constexpr std::uint32_t kAway = 1;

  /// A worker thread: standby until a loop is free, then run it.
  void worker();
  /// Runs loop `loop` until this thread hands it off or the daemon stops.
  void run_loop(std::size_t loop);
  /// Accepts every pending connection and deals each to a loop; `own` is
  /// the calling runner's loop.
  void accept_ready(Loop& own);
  /// Picks the next loop that is not away and counts a connection on it.
  Loop& deal(Loop& own);
  /// Serves one ready connection: flushes its outbox, or reads and
  /// answers its complete frames. False when it must be closed.
  bool serve(Connection& conn);
  /// Answers one request frame.
  Message handle(Connection& conn, Message& message);
  /// Arms `conn` for what it waits on: EPOLLOUT while its outbox holds
  /// bytes, EPOLLIN otherwise. Adds it back after a hand-off. False when
  /// epoll refuses it (the caller closes it).
  bool arm(Connection& conn);
  /// Releases the leases `conn` still holds.
  void reclaim(Connection& conn);
  /// Reclaims, then forgets and closes `conn`.
  void close_connection(Connection& conn);

  ServingEndpoint& endpoint_;
  UniqueFd listen_fd_;
  std::vector<Loop> loops_;  ///< fixed once serving
  UniqueFd wake_fd_;  ///< eventfd: stop() wakes every loop through it
  std::atomic<std::size_t> next_loop_{0};  ///< the next accept's loop
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> reclaimed_{0};

  // Standby lock: which loops no thread runs, and the connection
  // registry. A leaf entered under BundleServer::mu_ and
  // FetchCoalescer::inflight_mu_ by a hand-off, and held only for vector
  // and map updates.
  // fbc:lock-level(70)
  // fbc:guards(free_loops_, conns_)
  OrderedMutex standby_mu_{70, "BundleDaemon::standby_mu_"};
  std::condition_variable_any standby_cv_;
  std::vector<std::size_t> free_loops_;  ///< loops a standby may take
  std::map<const Connection*, std::unique_ptr<Connection>> conns_;

  std::vector<std::thread> threads_;
};

}  // namespace fbc::service
