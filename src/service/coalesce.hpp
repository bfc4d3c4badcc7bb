// FetchCoalescer: single-flight staging of files shared between
// concurrent admissions.
//
// Reservation inserts a bundle's missing files into the cache immediately
// (two-phase admit), so a second request overlapping an in-flight fetch
// sees those files "resident" and is granted without staging them again --
// there is never a duplicate MSS transfer. What WAS missing before this
// class is the wait: the second request's job would start running before
// the bytes actually arrived. The coalescer closes that gap: the fetching
// admission registers its missing files as in-flight, completes them when
// the (simulated) transfer finishes, and every other granted request whose
// bundle intersects an in-flight set blocks on that one transfer instead
// of issuing -- or skipping -- its own.
//
// The internal mutex (level 30 in the docs/SERVING.md lock hierarchy) is
// a leaf: it is never held while any other lock is taken, and waits
// happen outside the server's admission mutex entirely, so coalescing
// adds no contention to the grant path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/types.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::service {

/// What one wait_for() call observed (obs wiring: the coalesced-wait
/// histogram records wait_us for calls with waited_files > 0).
struct CoalesceWait {
  std::size_t waited_files = 0;  ///< distinct in-flight files waited on
  std::uint64_t wait_us = 0;     ///< wall time blocked, microseconds
};

/// Tracks files currently being staged (see file comment). Thread-safe.
class FetchCoalescer {
 public:
  /// Marks `files` in-flight on behalf of one transfer. Files already
  /// in-flight (a re-reservation after eviction mid-flight cannot happen
  /// while leases pin them, but be defensive) are counted per owner.
  void begin_fetch(std::span<const FileId> files);

  /// Marks `files` arrived and wakes every waiter (a no-op on the
  /// condition variable while none is parked).
  void complete_fetch(std::span<const FileId> files);

  /// Blocks until no file of `files` is in-flight. Returns what was
  /// waited on; zero-valued when nothing overlapped (the fast path: one
  /// lock acquisition, no wait). May block indefinitely, so the caller
  /// must not hold the admission mutex.
  // fbc:excludes(mu_) fbc:blocking
  [[nodiscard]] CoalesceWait wait_for(std::span<const FileId> files);

  /// Total transfers begun (begin_fetch calls).
  [[nodiscard]] std::uint64_t transfers() const;

  /// Total wait_for() calls that actually blocked on an in-flight file.
  [[nodiscard]] std::uint64_t coalesced_waits() const;

  /// Files currently in-flight (tests/audit).
  [[nodiscard]] std::size_t in_flight() const;

 private:
  /// Transfers currently staging `id` (0 for ids past the table's end).
  // fbc:requires(inflight_mu_)
  [[nodiscard]] std::uint32_t staging_count(FileId id) const noexcept {
    return id < in_flight_.size() ? in_flight_[id] : 0;
  }

  // fbc:lock-level(30)
  // fbc:guards(in_flight_, in_flight_files_, parked_)
  // fbc:guards(transfers_, coalesced_waits_)
  mutable OrderedMutex inflight_mu_{30, "FetchCoalescer::inflight_mu_"};
  std::condition_variable_any cv_;
  /// Dense FileId -> number of transfers currently staging it; grows to
  /// the largest id ever fetched, so steady-state fetches allocate nothing.
  std::vector<std::uint32_t> in_flight_;
  std::size_t in_flight_files_ = 0;  ///< non-zero cells of in_flight_
  /// Threads inside cv_.wait; complete_fetch skips the notify at zero.
  std::size_t parked_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t coalesced_waits_ = 0;
};

}  // namespace fbc::service
