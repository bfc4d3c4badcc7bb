// BlockingRegion: marks a wait that can outlast the calling request's own
// work, so the transport can move off the waiting thread first.
//
// BundleDaemon runs every endpoint call inline on the thread that runs
// the connection's event loop. A call that parks -- an admission waiting
// for space, a staging sleep, a coalesced wait on another transfer, a
// router RPC to a remote shard -- would stall every other connection of
// that loop, including the release that would free the space it waits
// for. So each such wait is wrapped in a BlockingRegion. On a loop thread
// the region's constructor runs the thread's HandOff exactly once: the
// daemon disarms the connection being served and wakes a standby thread
// to take the loop over (or, when the loop serves only that connection,
// keeps it and deals new connections elsewhere). On any other thread (clients, tests, tools, threads that already
// handed off) the region costs one thread-local load. This is the idea of
// Java's ForkJoinPool.ManagedBlocker.
//
// The hand-off may run while the caller holds BundleServer::mu_ or
// FetchCoalescer::inflight_mu_, so it must only take locks above them in
// the docs/SERVING.md hierarchy and must never wait.
#pragma once

namespace fbc::service {

/// What the thread that owns a transport loop does before it waits.
class HandOff {
 public:
  /// Gives the loop away; must not block.
  virtual void hand_off() noexcept = 0;

 protected:
  ~HandOff() = default;
};

namespace detail {
/// The calling thread's pending hand-off; null off the loop.
inline thread_local HandOff* t_hand_off = nullptr;
}  // namespace detail

/// Installs `hand_off` on the calling thread for the object's lifetime
/// (one connection's burst). A region inside that scope consumes it.
class ScopedHandOff {
 public:
  explicit ScopedHandOff(HandOff& hand_off) noexcept {
    detail::t_hand_off = &hand_off;
  }
  ~ScopedHandOff() { detail::t_hand_off = nullptr; }

  ScopedHandOff(const ScopedHandOff&) = delete;
  ScopedHandOff& operator=(const ScopedHandOff&) = delete;
};

/// Marks the enclosing scope as a wait (see file comment).
class BlockingRegion {
 public:
  BlockingRegion() noexcept {
    if (HandOff* pending = detail::t_hand_off) {
      detail::t_hand_off = nullptr;
      pending->hand_off();
    }
  }

  BlockingRegion(const BlockingRegion&) = delete;
  BlockingRegion& operator=(const BlockingRegion&) = delete;
};

}  // namespace fbc::service
