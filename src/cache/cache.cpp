#include "cache/cache.hpp"

#include <cassert>
#include <stdexcept>

namespace fbc {

DiskCache::DiskCache(Bytes capacity, const FileCatalog& catalog)
    : capacity_(capacity), catalog_(&catalog) {
  if (capacity == 0)
    throw std::invalid_argument("DiskCache: capacity must be positive");
  slot_.resize(catalog.count(), kNotResident);
  pins_.resize(catalog.count(), 0);
}

void DiskCache::grow_tables(FileId id) {
  if (id >= slot_.size()) {
    slot_.resize(id + 1, kNotResident);
    pins_.resize(id + 1, 0);
  }
}

bool DiskCache::contains(FileId id) const noexcept {
  return id < slot_.size() && slot_[id] != kNotResident;
}

bool DiskCache::supports(const Request& r) const noexcept {
  for (FileId id : r.files) {
    if (!contains(id)) return false;
  }
  return true;
}

std::vector<FileId> DiskCache::missing_files(const Request& r) const {
  std::vector<FileId> missing;
  for (FileId id : r.files) {
    if (!contains(id)) missing.push_back(id);
  }
  return missing;
}

Bytes DiskCache::missing_bytes(const Request& r) const noexcept {
  Bytes total = 0;
  for (FileId id : r.files) {
    if (!contains(id)) total += catalog_->size_of(id);
  }
  return total;
}

bool DiskCache::insert(FileId id) {
  if (!catalog_->valid(id))
    throw std::invalid_argument("DiskCache::insert: unknown file id");
  grow_tables(id);
  if (contains(id)) return false;
  const Bytes size = catalog_->size_of(id);
  if (size > free_bytes())
    throw std::runtime_error(
        "DiskCache::insert: file does not fit in free space");
  slot_[id] = static_cast<std::uint32_t>(resident_list_.size());
  resident_list_.push_back(id);
  used_ += size;
  return true;
}

bool DiskCache::evict(FileId id) {
  if (!contains(id)) return false;
  if (pins_[id] > 0)
    throw std::runtime_error("DiskCache::evict: file is pinned");
  const std::uint32_t pos = slot_[id];
  const FileId last = resident_list_.back();
  resident_list_[pos] = last;
  slot_[last] = pos;
  resident_list_.pop_back();
  slot_[id] = kNotResident;
  used_ -= catalog_->size_of(id);
  return true;
}

void DiskCache::pin(FileId id) {
  assert(contains(id));
  if (pins_[id]++ == 0) pinned_bytes_ += catalog_->size_of(id);
}

void DiskCache::unpin(FileId id) {
  assert(id < pins_.size() && pins_[id] > 0);
  if (--pins_[id] == 0) pinned_bytes_ -= catalog_->size_of(id);
}

bool DiskCache::pinned(FileId id) const noexcept {
  return id < pins_.size() && pins_[id] > 0;
}

void DiskCache::clear() {
  // Iterate over a snapshot since evict() mutates resident_list_.
  std::vector<FileId> snapshot(resident_list_.begin(), resident_list_.end());
  for (FileId id : snapshot) {
    if (!pinned(id)) evict(id);
  }
}

}  // namespace fbc
