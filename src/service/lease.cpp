#include "service/lease.hpp"

namespace fbc::service {

LeaseId LeaseTable::grant(const Request& request, DiskCache& cache) {
  for (FileId id : request.files) cache.pin(id);
  const LeaseId lease = next_++;
  leases_.emplace_hint(leases_.end(), lease, request);
  return lease;
}

bool LeaseTable::release(LeaseId id, DiskCache& cache) {
  const auto it = leases_.find(id);
  if (it == leases_.end()) return false;
  for (FileId file : it->second.files) cache.unpin(file);
  leases_.erase(it);
  return true;
}

bool LeaseTable::covers(FileId id) const noexcept {
  for (const auto& [lease, request] : leases_) {
    if (request.contains(id)) return true;
  }
  return false;
}

const Request* LeaseTable::bundle(LeaseId id) const noexcept {
  const auto it = leases_.find(id);
  return it == leases_.end() ? nullptr : &it->second;
}

void LeaseTable::release_all(DiskCache& cache) {
  for (const auto& [lease, request] : leases_) {
    for (FileId file : request.files) cache.unpin(file);
  }
  leases_.clear();
}

}  // namespace fbc::service
