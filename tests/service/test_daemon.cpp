// End-to-end daemon tests over real loopback sockets: the wire protocol
// round-trips through BundleDaemon/BundleClient, concurrent clients are
// served correctly, dead connections get their leases reclaimed, and
// malformed frames drop only the offending connection. The event-loop
// cases pin that no connection can stall the others: idle connections,
// a parked acquire or a staging sleep (the loop hands itself off), and a
// client that never reads its replies (the outbox).
#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "grid/mss.hpp"
#include "grid/transfer.hpp"
#include "service/client.hpp"
#include "util/rng.hpp"

namespace fbc::service {
namespace {

using namespace std::chrono_literals;

/// Daemon over a 10-file catalog on an ephemeral port.
struct DaemonFixture {
  FileCatalog catalog{{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}};
  MassStorageSystem mss{default_tiers(), catalog};
  std::unique_ptr<BundleServer> server;
  std::unique_ptr<BundleDaemon> daemon;

  explicit DaemonFixture(Bytes cache_bytes = 3000, std::size_t workers = 4,
                         double time_scale = 0.0,
                         std::uint32_t timeout_ms = 20000) {
    ServiceConfig config;
    config.cache_bytes = cache_bytes;
    config.timeout_ms = timeout_ms;
    config.time_scale = time_scale;
    server = std::make_unique<BundleServer>(config, mss);
    daemon = std::make_unique<BundleDaemon>(*server, /*port=*/0, workers);
  }
};

/// Budget for a round trip that nothing should be able to delay. Wide
/// enough for sanitizer builds on a loaded host; a stalled loop holds a
/// client for the full wait it is stuck behind, 2.5 s or more in every
/// case here.
constexpr auto kPromptly = 1s;

/// Polls `done` every millisecond for up to 10 s.
template <typename Pred>
bool eventually(Pred done) {
  for (int i = 0; i < 10000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return done();
}

/// A fresh connection's metrics() round trip, run on its own thread.
std::future<ServiceStats> stats_async(std::uint16_t port) {
  return std::async(std::launch::async,
                    [port] { return BundleClient(port).metrics().stats; });
}

TEST(BundleDaemon, BindsEphemeralPortAndStops) {
  DaemonFixture fx;
  EXPECT_NE(fx.daemon->port(), 0);
  fx.daemon->stop();
  fx.daemon->stop();  // idempotent
}

TEST(BundleDaemon, AcquireReleaseStatsRoundTrip) {
  DaemonFixture fx;
  BundleClient client(fx.daemon->port());

  const AcquireResult miss = client.acquire({0, 1, 2});
  ASSERT_EQ(miss.status, AcquireStatus::Ok);
  EXPECT_FALSE(miss.request_hit);
  EXPECT_NE(miss.lease, 0u);

  const AcquireResult hit = client.acquire({0, 1, 2});
  ASSERT_EQ(hit.status, AcquireStatus::Ok);
  EXPECT_TRUE(hit.request_hit);

  EXPECT_TRUE(client.release(miss.lease));
  EXPECT_TRUE(client.release(hit.lease));
  EXPECT_FALSE(client.release(99999));

  const ServiceStats stats = client.metrics().stats;
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(stats.used_bytes, 600u);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, FrameLargerThanOneReadIsServed) {
  // 30,000 file ids (120 KB) reach the non-blocking loop over several
  // reads; every partial read must wait for the rest, not drop the frame.
  DaemonFixture fx;
  BundleClient client(fx.daemon->port());
  std::vector<FileId> files;
  for (int i = 0; i < 30000; ++i) files.push_back(static_cast<FileId>(i % 3));
  const AcquireResult r = client.acquire(files);
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_TRUE(client.release(r.lease));
  EXPECT_EQ(fx.server->stats().bytes_requested, 600u);
}

TEST(BundleDaemon, AnswersEveryFrameOfOneWrite) {
  FileCatalog catalog{{100, 200, 300}};
  MassStorageSystem mss{default_tiers(), catalog};
  ServiceConfig config;
  config.cache_bytes = 3000;
  BundleServer server(config, mss);
  BundleDaemon daemon(server, /*port=*/0, /*workers=*/2);
  // Two frames in one write arrive in one read: the loop must answer the
  // second from its buffer, not wait on a socket that has nothing more.
  UniqueFd raw = connect_loopback(daemon.port());
  std::vector<std::uint8_t> burst;
  encode_frame(MetricsRequestMsg{}, &burst);
  encode_frame(AcquireRequestMsg{7, {0, 1}}, &burst);
  ASSERT_TRUE(write_full(raw.get(), burst.data(), burst.size()));
  const std::optional<Message> metrics = recv_message(raw.get());
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(std::holds_alternative<MetricsReplyMsg>(*metrics));
  const std::optional<Message> acquired = recv_message(raw.get());
  ASSERT_TRUE(acquired.has_value());
  const auto* reply = std::get_if<AcquireReplyMsg>(&*acquired);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->cookie, 7u);
  EXPECT_EQ(reply->status, AcquireStatus::Ok);
}

TEST(BundleDaemon, InvalidRequestOverTheWire) {
  DaemonFixture fx;
  BundleClient client(fx.daemon->port());
  EXPECT_EQ(client.acquire({}).status, AcquireStatus::InvalidRequest);
  EXPECT_EQ(client.acquire({12345}).status, AcquireStatus::InvalidRequest);
}

TEST(BundleDaemon, ConcurrentClientsAllSucceed) {
  DaemonFixture fx(/*cache_bytes=*/2000, /*workers=*/6);
  constexpr int kClients = 6;
  constexpr int kRequests = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(static_cast<std::size_t>(kClients), 0);
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fx, &failures, c] {
      BundleClient client(fx.daemon->port());
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < kRequests; ++i) {
        std::vector<FileId> files;
        const std::size_t count = rng.uniform_u64(1, 3);
        for (std::size_t f = 0; f < count; ++f)
          files.push_back(static_cast<FileId>(rng.uniform_u64(0, 4)));
        const AcquireResult r = client.acquire(files);
        if (r.status != AcquireStatus::Ok || !client.release(r.lease))
          ++failures[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < failures.size(); ++c)
    EXPECT_EQ(failures[c], 0) << c;

  const ServiceStats stats = fx.server->stats();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(fx.daemon->connections_accepted(), kClients);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, ReclaimsLeasesOfDeadConnections) {
  DaemonFixture fx;
  {
    BundleClient client(fx.daemon->port());
    const AcquireResult r = client.acquire({0, 1});
    ASSERT_EQ(r.status, AcquireStatus::Ok);
    EXPECT_EQ(fx.server->stats().active_leases, 1u);
    // Client goes away without releasing.
  }
  // The daemon must unpin the dead client's bundle.
  for (int i = 0; i < 2000 && fx.server->stats().active_leases > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.server->stats().active_leases, 0u);
  EXPECT_EQ(fx.daemon->leases_reclaimed(), 1u);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, MalformedFrameDropsOnlyThatConnection) {
  DaemonFixture fx;
  {
    // Raw connection sending an unknown message type.
    UniqueFd raw = connect_loopback(fx.daemon->port());
    const std::uint8_t bogus[kFrameHeaderBytes] = {0, 0, 0, 0, 42};
    ASSERT_TRUE(write_full(raw.get(), bogus, sizeof bogus));
    // The daemon closes the connection: next read sees EOF.
    std::uint8_t byte = 0;
    EXPECT_FALSE(read_full(raw.get(), &byte, 1));
  }
  // A well-behaved client is unaffected.
  BundleClient client(fx.daemon->port());
  const AcquireResult r = client.acquire({4});
  EXPECT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_TRUE(client.release(r.lease));
}

TEST(BundleDaemon, RetiredStatsRequestClosesOnlyItsConnection) {
  DaemonFixture fx;
  BundleClient other(fx.daemon->port());
  const AcquireResult held = other.acquire({4});
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  {
    // What an old client's stats poll sends: type byte 5, empty payload.
    UniqueFd raw = connect_loopback(fx.daemon->port());
    const std::uint8_t stats_request[kFrameHeaderBytes] = {0, 0, 0, 0, 5};
    ASSERT_TRUE(write_full(raw.get(), stats_request, sizeof stats_request));
    std::uint8_t byte = 0;
    EXPECT_FALSE(read_full(raw.get(), &byte, 1));  // closed, no reply
  }
  // The connection that was already open is still served.
  EXPECT_EQ(other.metrics().stats.active_leases, 1u);
  EXPECT_TRUE(other.release(held.lease));
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, ReplyTypeFromClientIsRejected) {
  DaemonFixture fx;
  UniqueFd raw = connect_loopback(fx.daemon->port());
  ASSERT_TRUE(send_message(raw.get(), ReleaseReplyMsg{1}));
  std::uint8_t byte = 0;
  EXPECT_FALSE(read_full(raw.get(), &byte, 1));  // connection dropped
}

TEST(BundleDaemon, StopWakesBlockedClients) {
  DaemonFixture fx(/*cache_bytes=*/1000);
  BundleClient holder(fx.daemon->port());
  const AcquireResult held = holder.acquire({5});  // 600 B pinned
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  std::thread blocked_client([&fx] {
    try {
      BundleClient client(fx.daemon->port());
      // 900 B cannot fit next to the pinned 600 B: blocks server-side.
      const AcquireResult r = client.acquire({8});
      EXPECT_EQ(r.status, AcquireStatus::Closed);
    } catch (const std::exception&) {
      // The daemon may tear the connection down before the reply frame:
      // also an acceptable way to unblock.
    }
  });
  // Wait until the request is queued, then shut everything down.
  for (int i = 0; i < 2000 && fx.server->stats().queue_depth == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.server->stats().queue_depth, 1u);
  fx.daemon->stop();
  blocked_client.join();
}

TEST(BundleDaemon, IdleConnectionsDoNotStarveAFreshClient) {
  // Open connections must not need a worker each: with --workers=2, two
  // idle clients plus a thousand more must leave a fresh one served.
  rlimit files{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &files), 0);
  if (files.rlim_cur < 4096 && files.rlim_max >= 4096) {
    files.rlim_cur = 4096;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &files), 0);
  }
  DaemonFixture fx(/*cache_bytes=*/3000, /*workers=*/2);
  std::vector<std::unique_ptr<BundleClient>> idle;
  for (int i = 0; i < 2 + 1000; ++i)
    idle.push_back(std::make_unique<BundleClient>(fx.daemon->port()));
  ASSERT_TRUE(eventually(
      [&] { return fx.daemon->connections_accepted() == idle.size(); }));

  std::future<ServiceStats> fresh = stats_async(fx.daemon->port());
  EXPECT_EQ(fresh.wait_for(kPromptly), std::future_status::ready);
  idle.clear();  // lets a thread-per-connection daemon get to `fresh`
  EXPECT_EQ(fresh.get().requests, 0u);
}

TEST(BundleDaemon, ParkedAcquireHandsTheLoopOff) {
  // The cache holds one bundle. B's acquire parks behind A's lease; the
  // loop must keep serving (C's stats) and must carry A's release to the
  // parked B. Without the hand-off B blocks the loop until it times out.
  DaemonFixture fx(/*cache_bytes=*/1000, /*workers=*/2, /*time_scale=*/0.0,
                   /*timeout_ms=*/5000);
  BundleClient a(fx.daemon->port());
  const AcquireResult held = a.acquire({9});  // 1000 B: the whole cache
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  std::future<AcquireResult> parked = std::async(std::launch::async, [&fx] {
    return BundleClient(fx.daemon->port()).acquire({8});
  });
  ASSERT_TRUE(eventually([&] { return fx.server->stats().queue_depth == 1; }));

  std::future<ServiceStats> c = stats_async(fx.daemon->port());
  EXPECT_EQ(c.wait_for(kPromptly), std::future_status::ready);
  EXPECT_EQ(c.get().queue_depth, 1u);
  EXPECT_TRUE(a.release(held.lease));
  EXPECT_EQ(parked.get().status, AcquireStatus::Ok);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, StagingSleepDoesNotDelayOtherConnections) {
  // Scale time so staging file 9 sleeps 2.5 s, well past kPromptly.
  const DaemonFixture sizing;
  const std::vector<FileId> bundle{9};
  const double stage_s = TransferModel{}.stage_seconds(bundle, sizing.mss);
  ASSERT_GT(stage_s, 0.0);
  DaemonFixture fx(/*cache_bytes=*/3000, /*workers=*/2,
                   /*time_scale=*/2.5 / stage_s);

  const auto start = std::chrono::steady_clock::now();
  std::future<AcquireResult> staging = std::async(std::launch::async, [&] {
    return BundleClient(fx.daemon->port()).acquire(bundle);
  });
  // Admitted (counted) but not yet answered: the owner is asleep staging.
  ASSERT_TRUE(eventually([&] { return fx.server->stats().requests == 1; }));

  std::future<ServiceStats> other = stats_async(fx.daemon->port());
  EXPECT_EQ(other.wait_for(kPromptly), std::future_status::ready);
  EXPECT_EQ(staging.wait_for(0ms), std::future_status::timeout);
  EXPECT_EQ(staging.get().status, AcquireStatus::Ok);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 2s);
  other.get();
}

TEST(BundleDaemon, SlowReaderDoesNotStallOtherClients) {
  DaemonFixture fx;
  // A client with a tiny receive window pipelines acquires and never
  // reads a reply. 200,000 replies (6 MB) overflow any socket buffer, so
  // the daemon's replies back up.
  UniqueFd slow(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(slow.valid());
  const int window = 4096;
  ASSERT_EQ(::setsockopt(slow.get(), SOL_SOCKET, SO_RCVBUF, &window,
                         sizeof window),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(fx.daemon->port());
  ASSERT_EQ(::connect(slow.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::vector<std::uint8_t> frames;
  constexpr std::uint64_t kFrames = 200000;
  for (std::uint64_t cookie = 1; cookie <= kFrames; ++cookie)
    encode_frame(AcquireRequestMsg{cookie, {0}}, &frames);
  std::thread writer([&] {
    try {
      (void)write_full(slow.get(), frames.data(), frames.size());
    } catch (const NetError&) {
      // shutdown() below ends a write still blocked on the full window.
    }
  });

  // Wait until the daemon stops taking the slow client's requests: its
  // replies fill the socket and the daemon stops reading it.
  std::uint64_t served = 0;
  ASSERT_TRUE(eventually([&] {
    const std::uint64_t before = fx.server->stats().requests;
    std::this_thread::sleep_for(20ms);
    served = fx.server->stats().requests;
    return served > 0 && served == before;
  }));
  EXPECT_LT(served, kFrames);

  std::future<ServiceStats> other = stats_async(fx.daemon->port());
  EXPECT_EQ(other.wait_for(kPromptly), std::future_status::ready);
  slow.shutdown_both();
  writer.join();
  slow.reset();  // unread replies: the close resets the connection
  other.get();
}

}  // namespace
}  // namespace fbc::service
