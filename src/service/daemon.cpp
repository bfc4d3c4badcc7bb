#include "service/daemon.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "service/blocking.hpp"
#include "util/log.hpp"

namespace fbc::service {

namespace {

constexpr int kMaxEvents = 64;

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

}  // namespace

struct BundleDaemon::Connection {
  Connection(int raw_fd, Loop& home) : fd(raw_fd), loop(home) {}
  // epoll holds the address.
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends what the socket takes of the outbox. False once the peer is
  /// gone; the unsent rest stays for the next EPOLLOUT.
  bool flush() {
    while (pending()) {
      // The socket is non-blocking; MSG_NOSIGNAL turns a dead peer into
      // EPIPE instead of SIGPIPE.
      const ssize_t n = ::send(fd.get(), outbox.data() + sent,
                               outbox.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EPIPE || errno == ECONNRESET) return false;
        throw_errno("send");
      }
      sent += static_cast<std::size_t>(n);
    }
    outbox.clear();
    sent = 0;
    return true;
  }

  [[nodiscard]] bool pending() const noexcept { return sent < outbox.size(); }

  UniqueFd fd;
  Loop& loop;  ///< the loop that serves this connection
  FrameReader reader;
  /// Encoded replies; bytes before `sent` are already on the socket.
  std::vector<std::uint8_t> outbox;
  std::size_t sent = 0;
  /// Leases granted over this connection and not yet released by it.
  std::vector<LeaseId> held;
  bool armed = false;      ///< in the epoll set
  bool armed_out = false;  ///< ... for EPOLLOUT rather than EPOLLIN
};

/// One thread's turn at the loop, and the hand-off its waits run.
class BundleDaemon::Turn final : public HandOff {
 public:
  Turn(BundleDaemon& daemon, std::size_t loop)
      : daemon_(daemon), loop_(loop) {}
  // The thread-local hook holds the address.
  Turn(const Turn&) = delete;
  Turn& operator=(const Turn&) = delete;

  void hand_off() noexcept override {
    // A loop that serves only this connection has nothing else to hand
    // over: keep it, marked away so that other loops take new connections
    // meanwhile. A lone loop must still hand off, or nobody accepts.
    Loop& loop = daemon_.loops_[loop_];
    std::uint32_t alone = 2;
    if (daemon_.loops_.size() > 1 &&
        loop.state.compare_exchange_strong(alone, alone | kAway)) {
      away = true;
      return;
    }
    // Out of the epoll set first: the next owner must not see the
    // connection this thread is still serving.
    if (current->armed) {
      (void)::epoll_ctl(loop.epoll_fd.get(), EPOLL_CTL_DEL, current->fd.get(),
                        nullptr);
      current->armed = false;
    }
    handed_off = true;
    {
      std::lock_guard<OrderedMutex> lock(daemon_.standby_mu_);
      daemon_.free_loops_.push_back(loop_);
    }
    daemon_.standby_cv_.notify_one();
  }

  Connection* current = nullptr;  ///< the connection being served
  bool handed_off = false;
  bool away = false;  ///< kept the loop through a wait

 private:
  BundleDaemon& daemon_;
  const std::size_t loop_;
};

BundleDaemon::BundleDaemon(ServingEndpoint& endpoint, std::uint16_t port,
                           std::size_t workers)
    : endpoint_(endpoint) {
  // Bind in the body: listen_loopback writes port_, which a member
  // initializer for listen_fd_ would race with port_'s own default init.
  listen_fd_ = listen_loopback(port, &port_);
  set_nonblocking(listen_fd_.get());
  wake_fd_ = UniqueFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) throw_errno("eventfd");
  workers = std::max<std::size_t>(1, workers);
  // One BundleServer decides everything under one mutex, so a second loop
  // over it only contends (1, 2 and 4 loops measured 78.7k, 69.7k and
  // 61.5k jobs/s). A router's calls run under its shards' separate locks,
  // and a loop serves its connections one at a time, so a router gets a
  // loop per worker (4 loops over 4 shards measured 10-15% below 8).
  const std::size_t loops = endpoint.info().shard_count > 1 ? workers : 1;
  loops_ = std::vector<Loop>(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    UniqueFd& epoll_fd = loops_[i].epoll_fd;
    epoll_fd = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd.valid()) throw_errno("epoll_create1");
    for (UniqueFd* fd : {&listen_fd_, &wake_fd_}) {
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.ptr = fd;
      if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, fd->get(), &event) != 0)
        throw_errno("epoll_ctl");
    }
    free_loops_.push_back(i);
  }
  // A runner per loop plus workers - 1 standbys: that many calls can wait
  // with every loop still served.
  const std::size_t threads = loops + workers - 1;
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this] { worker(); });
}

BundleDaemon::~BundleDaemon() { stop(); }

void BundleDaemon::stop() {
  {
    std::lock_guard<OrderedMutex> lock(standby_mu_);
    if (stopping_.exchange(true)) return;
  }
  // Wake queued acquires so parked workers come back, then the standbys
  // and the loops (the eventfd stays readable, so whoever runs a loop
  // next sees it too), then join. Only then is every connection unowned,
  // so the last step reclaims and closes them all.
  endpoint_.close();
  standby_cv_.notify_all();
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t woke =
      ::write(wake_fd_.get(), &one, sizeof one);
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();

  std::map<const Connection*, std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<OrderedMutex> lock(standby_mu_);
    conns.swap(conns_);
  }
  for (auto& [key, conn] : conns) reclaim(*conn);
  conns.clear();
  listen_fd_.reset();
  loops_.clear();
  wake_fd_.reset();
}

void BundleDaemon::worker() {
  for (;;) {
    std::size_t loop = 0;
    {
      std::unique_lock<OrderedMutex> lock(standby_mu_);
      standby_cv_.wait(lock, [this] {
        return !free_loops_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      loop = free_loops_.back();
      free_loops_.pop_back();
    }
    run_loop(loop);
  }
}

void BundleDaemon::run_loop(std::size_t loop) {
  Turn turn(*this, loop);
  Loop& own = loops_[loop];
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready =
        ::epoll_wait(own.epoll_fd.get(), events, kMaxEvents, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      // Only a broken epoll descriptor gets here; no thread can serve.
      FBC_LOG(Error) << "fbcd: epoll_wait: " << std::strerror(errno);
      std::abort();
    }
    for (int i = 0; i < ready; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &wake_fd_) return;
      if (tag == &listen_fd_) {
        accept_ready(own);
        continue;
      }
      Connection& conn = *static_cast<Connection*>(tag);
      turn.current = &conn;
      {
        // close_connection may call the endpoint too (lease reclaim), so
        // the hand-off stays installed until the connection is settled.
        const ScopedHandOff scope(turn);
        if (!serve(conn) || !arm(conn)) close_connection(conn);
      }
      if (turn.away) {
        own.state.fetch_and(~kAway);
        turn.away = false;
      }
      // After a hand-off the rest of this batch belongs to the new
      // owner; epoll is level-triggered, so it sees those events again.
      if (turn.handed_off) return;
    }
  }
}

void BundleDaemon::accept_ready(Loop& own) {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EAGAIN: drained. Out of descriptors: the listener stays readable
      // and the next turn retries.
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    set_nodelay(fd);  // replies pipeline; Nagle would stall the 2nd frame
    auto owned = std::make_unique<Connection>(fd, deal(own));
    Connection& conn = *owned;
    {
      std::lock_guard<OrderedMutex> lock(standby_mu_);
      conns_.emplace(&conn, std::move(owned));
    }
    if (!arm(conn)) close_connection(conn);
  }
}

BundleDaemon::Loop& BundleDaemon::deal(Loop& own) {
  for (std::size_t tries = 0; tries < loops_.size(); ++tries) {
    Loop& loop = loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                        loops_.size()];
    std::uint32_t state = loop.state.load();
    while ((state & kAway) == 0) {
      if (loop.state.compare_exchange_weak(state, state + 2)) return loop;
    }
  }
  // Every loop was away as we looked; the caller's own never is.
  own.state.fetch_add(2);
  return own;
}

bool BundleDaemon::serve(Connection& conn) {
  try {
    // Writable again: drain the outbox before reading anything new.
    if (conn.pending() && !conn.flush()) return false;
    if (conn.pending()) return true;
    Message message;
    switch (conn.reader.try_next(conn.fd.get(), &message)) {
      case TryRecv::Empty:
        return true;
      case TryRecv::Eof:
        return false;
      case TryRecv::Got:
        break;
    }
    // The burst is the frame in hand plus every complete frame the same
    // read pulled in (a pipelined client writes several per send); their
    // replies leave in one send.
    do {
      encode_frame(handle(conn, message), &conn.outbox);
    } while (conn.reader.buffered_next(&message));
    return conn.flush();
  } catch (const std::exception& e) {
    FBC_LOG(Warn) << "fbcd: dropping connection: " << e.what();
    return false;
  }
}

Message BundleDaemon::handle(Connection& conn, Message& message) {
  if (auto* acq = std::get_if<AcquireRequestMsg>(&message)) {
    const Request request(std::move(acq->files));
    const AcquireResult r = endpoint_.acquire(request);
    if (r.status == AcquireStatus::Ok) conn.held.push_back(r.lease);
    return AcquireReplyMsg{acq->cookie,      r.status,  r.lease,
                           r.retry_after_ms, r.retries, r.request_hit};
  }
  if (auto* rel = std::get_if<ReleaseRequestMsg>(&message)) {
    const bool ok = endpoint_.release(rel->lease);
    if (ok) std::erase(conn.held, rel->lease);
    return ReleaseReplyMsg{ok};
  }
  if (std::holds_alternative<MetricsRequestMsg>(message))
    return MetricsReplyMsg{endpoint_.metrics()};
  if (std::holds_alternative<HelloRequestMsg>(message)) {
    const EndpointInfo info = endpoint_.info();
    return HelloReplyMsg{info.role, info.shard_id, info.shard_count,
                         info.shards_down};
  }
  // Reply types are server-to-client only.
  throw ProtocolError(std::string("unexpected client message ") +
                      to_string(message_type(message)));
}

bool BundleDaemon::arm(Connection& conn) {
  const bool out = conn.pending();
  if (conn.armed && conn.armed_out == out) return true;
  epoll_event event{};
  event.events = out ? EPOLLOUT : EPOLLIN;
  event.data.ptr = &conn;
  const int op = conn.armed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  // Written before the ADD: from that instant the loop owner may serve
  // (and close) the connection.
  conn.armed = true;
  conn.armed_out = out;
  if (::epoll_ctl(conn.loop.epoll_fd.get(), op, conn.fd.get(), &event) != 0) {
    conn.armed = false;
    FBC_LOG(Warn) << "fbcd: dropping connection: epoll_ctl: "
                  << std::strerror(errno);
    return false;
  }
  return true;
}

void BundleDaemon::reclaim(Connection& conn) {
  // A connection that dies holding leases must not leave its bundles
  // pinned forever -- that would wedge every other client's admissions.
  try {
    for (LeaseId lease : conn.held) {
      if (endpoint_.release(lease))
        reclaimed_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    FBC_LOG(Warn) << "fbcd: reclaiming a dead connection's leases: "
                  << e.what();
  }
  conn.held.clear();
}

void BundleDaemon::close_connection(Connection& conn) {
  reclaim(conn);
  conn.loop.state.fetch_sub(2);
  std::unique_ptr<Connection> owned;
  {
    std::lock_guard<OrderedMutex> lock(standby_mu_);
    const auto it = conns_.find(&conn);
    owned = std::move(it->second);
    conns_.erase(it);
  }
  // `owned` closes the socket here, which also drops it from the epoll set.
}

}  // namespace fbc::service
