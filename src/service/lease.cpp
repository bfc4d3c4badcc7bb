#include "service/lease.hpp"

namespace fbc::service {

LeaseId LeaseTable::grant(const Request& request, DiskCache& cache,
                          TimePoint granted_at) {
  for (FileId id : request.files) cache.pin(id);
  const LeaseId lease = next_++;
  leases_.emplace_hint(leases_.end(), lease, Lease{request, granted_at});
  return lease;
}

bool LeaseTable::release(LeaseId id, DiskCache& cache, TimePoint* granted_at) {
  const auto it = leases_.find(id);
  if (it == leases_.end()) return false;
  for (FileId file : it->second.bundle.files) cache.unpin(file);
  if (granted_at != nullptr) *granted_at = it->second.granted_at;
  leases_.erase(it);
  return true;
}

bool LeaseTable::covers(FileId id) const noexcept {
  for (const auto& [lease, entry] : leases_) {
    if (entry.bundle.contains(id)) return true;
  }
  return false;
}

const Request* LeaseTable::bundle(LeaseId id) const noexcept {
  const auto it = leases_.find(id);
  return it == leases_.end() ? nullptr : &it->second.bundle;
}

void LeaseTable::release_all(DiskCache& cache) {
  for (const auto& [lease, entry] : leases_) {
    for (FileId file : entry.bundle.files) cache.unpin(file);
  }
  leases_.clear();
}

}  // namespace fbc::service
