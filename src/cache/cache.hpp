// DiskCache: the simulated SRM staging disk.
//
// Tracks which files are resident, enforces the capacity invariant, and
// supports pinning: files belonging to the job currently being admitted are
// pinned so no replacement policy can evict them out from under the job
// (the paper's service model requires the whole bundle resident at once).
#pragma once

#include <unordered_set>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/types.hpp"

namespace fbc {

/// Fixed-capacity cache of whole files.
///
/// Invariants (checked in debug builds, maintained unconditionally):
///  * used_bytes() <= capacity() at all times,
///  * a pinned file cannot be evicted,
///  * insert/evict keep the resident set and byte accounting consistent.
class DiskCache {
 public:
  /// Creates an empty cache of `capacity` bytes over `catalog`.
  /// The catalog must outlive the cache. Precondition: capacity > 0.
  DiskCache(Bytes capacity, const FileCatalog& catalog);

  /// Total capacity in bytes.
  [[nodiscard]] Bytes capacity() const noexcept { return capacity_; }

  /// Bytes currently occupied by resident files.
  [[nodiscard]] Bytes used_bytes() const noexcept { return used_; }

  /// Bytes still free.
  [[nodiscard]] Bytes free_bytes() const noexcept { return capacity_ - used_; }

  /// Number of resident files.
  [[nodiscard]] std::size_t file_count() const noexcept {
    return resident_list_.size();
  }

  /// True when file `id` is resident.
  [[nodiscard]] bool contains(FileId id) const noexcept;

  /// True when every file of `r` is resident (a request-hit).
  [[nodiscard]] bool supports(const Request& r) const noexcept;

  /// The subset of `r`'s files that are NOT resident.
  [[nodiscard]] std::vector<FileId> missing_files(const Request& r) const;

  /// Total size of missing_files(r).
  [[nodiscard]] Bytes missing_bytes(const Request& r) const noexcept;

  /// Inserts `id`. Returns false (no-op) when already resident.
  /// Throws std::runtime_error if the file does not fit in free space.
  bool insert(FileId id);

  /// Evicts `id`. Returns false (no-op) when not resident.
  /// Throws std::runtime_error if the file is pinned.
  bool evict(FileId id);

  /// Pins a resident file (counted: pin twice, unpin twice).
  /// Precondition: contains(id).
  void pin(FileId id);

  /// Releases one pin. Precondition: pin count > 0.
  void unpin(FileId id);

  /// True when `id` has at least one outstanding pin.
  [[nodiscard]] bool pinned(FileId id) const noexcept;

  /// Total size of the files with at least one outstanding pin (all of
  /// them resident: a pinned file cannot be evicted).
  [[nodiscard]] Bytes pinned_bytes() const noexcept { return pinned_bytes_; }

  /// Read-only snapshot view of resident file ids (unspecified order; stable
  /// between mutations).
  [[nodiscard]] std::span<const FileId> resident_files() const noexcept {
    return resident_list_;
  }

  /// The catalog this cache resolves sizes against.
  [[nodiscard]] const FileCatalog& catalog() const noexcept {
    return *catalog_;
  }

  /// Evicts everything that is not pinned.
  void clear();

 private:
  void grow_tables(FileId id);

  Bytes capacity_;
  Bytes used_ = 0;
  Bytes pinned_bytes_ = 0;
  const FileCatalog* catalog_;
  // Dense membership/pins keyed by FileId for O(1) lookups, plus a compact
  // list for iteration. slot_[id] is the index of id in resident_list_, or
  // kNotResident.
  static constexpr std::uint32_t kNotResident = 0xffffffffU;
  std::vector<std::uint32_t> slot_;
  std::vector<std::uint32_t> pins_;
  std::vector<FileId> resident_list_;
};

}  // namespace fbc
