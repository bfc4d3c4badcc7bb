// Pin leases: reference-counted residency guarantees for in-flight jobs.
//
// The single-job pinning the simulator and SRM use (pin the bundle of the
// one job currently being admitted) generalizes here to many concurrent
// jobs: each granted lease pins every file of its bundle in the DiskCache,
// and because DiskCache pins are counted, overlapping bundles simply stack
// pins. A file is evictable again only once every lease covering it has
// been released -- DiskCache::evict throws on a pinned file, so the lease
// invariant (no eviction of a leased file) is enforced at the cache layer,
// not merely by policy convention.
//
// LeaseTable is not itself thread-safe: BundleServer holds it under its
// admission mutex, which also guards the cache the pins live in, so a
// grant or release is one step of the admission critical section.
#pragma once

#include <cstdint>
#include <map>

#include "cache/cache.hpp"
#include "service/protocol.hpp"

namespace fbc::service {

/// Registry of outstanding pin leases over one DiskCache.
class LeaseTable {
 public:
  /// Pins every file of `request` in `cache` and records the lease.
  /// Precondition: every file of the bundle is resident. Lease ids are
  /// dense, start at 1, and are never reused within a server lifetime.
  [[nodiscard]] LeaseId grant(const Request& request, DiskCache& cache);

  /// Unpins the lease's files and forgets it. Returns false for unknown
  /// (or already released) ids.
  bool release(LeaseId id, DiskCache& cache);

  /// Outstanding lease count.
  [[nodiscard]] std::size_t active() const noexcept { return leases_.size(); }

  /// Total leases ever granted.
  [[nodiscard]] std::uint64_t granted() const noexcept { return next_ - 1; }

  /// True when at least one active lease covers `id`.
  [[nodiscard]] bool covers(FileId id) const noexcept;

  /// The bundle held by a lease, or nullptr for unknown ids.
  [[nodiscard]] const Request* bundle(LeaseId id) const noexcept;

  /// Releases every outstanding lease (server shutdown).
  void release_all(DiskCache& cache);

  /// Read-only view of the live table in lease-id order, for audits.
  [[nodiscard]] const std::map<LeaseId, Request>& leases() const noexcept {
    return leases_;
  }

 private:
  std::map<LeaseId, Request> leases_;
  LeaseId next_ = 1;
};

}  // namespace fbc::service
