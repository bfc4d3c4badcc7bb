#include "service/coalesce.hpp"

#include <chrono>

#include "service/blocking.hpp"

namespace fbc::service {

void FetchCoalescer::begin_fetch(std::span<const FileId> files) {
  if (files.empty()) return;
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  ++transfers_;
  for (FileId id : files) {
    if (id >= in_flight_.size()) in_flight_.resize(std::size_t{id} + 1, 0);
    if (in_flight_[id]++ == 0) ++in_flight_files_;
  }
}

void FetchCoalescer::complete_fetch(std::span<const FileId> files) {
  if (files.empty()) return;
  bool wake = false;
  {
    std::lock_guard<OrderedMutex> lock(inflight_mu_);
    for (FileId id : files) {
      if (staging_count(id) != 0 && --in_flight_[id] == 0) --in_flight_files_;
    }
    // A waiter bumps parked_ under this lock before it waits, so a zero
    // here means nobody can miss this completion.
    wake = parked_ > 0;
  }
  if (wake) cv_.notify_all();
}

CoalesceWait FetchCoalescer::wait_for(std::span<const FileId> files) {
  CoalesceWait result;
  if (files.empty()) return result;
  std::unique_lock<OrderedMutex> lock(inflight_mu_);
  std::size_t overlapping = 0;
  for (FileId id : files) {
    if (staging_count(id) != 0) ++overlapping;
  }
  if (overlapping == 0) return result;
  ++coalesced_waits_;
  result.waited_files = overlapping;
  const BlockingRegion blocked;
  const auto start = std::chrono::steady_clock::now();
  ++parked_;
  cv_.wait(lock, [&] {
    for (FileId id : files) {
      if (staging_count(id) != 0) return false;
    }
    return true;
  });
  --parked_;
  result.wait_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

std::uint64_t FetchCoalescer::transfers() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return transfers_;
}

std::uint64_t FetchCoalescer::coalesced_waits() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return coalesced_waits_;
}

std::size_t FetchCoalescer::in_flight() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return in_flight_files_;
}

}  // namespace fbc::service
