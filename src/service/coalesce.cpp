#include "service/coalesce.hpp"

#include <chrono>

#include "service/blocking.hpp"

namespace fbc::service {

void FetchCoalescer::begin_fetch(std::span<const FileId> files) {
  if (files.empty()) return;
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  ++transfers_;
  for (FileId id : files) ++in_flight_[id];
}

void FetchCoalescer::complete_fetch(std::span<const FileId> files) {
  if (files.empty()) return;
  {
    std::lock_guard<OrderedMutex> lock(inflight_mu_);
    for (FileId id : files) {
      const auto it = in_flight_.find(id);
      if (it != in_flight_.end() && --it->second == 0) in_flight_.erase(it);
    }
  }
  cv_.notify_all();
}

CoalesceWait FetchCoalescer::wait_for(std::span<const FileId> files) {
  CoalesceWait result;
  if (files.empty()) return result;
  std::unique_lock<OrderedMutex> lock(inflight_mu_);
  std::size_t overlapping = 0;
  for (FileId id : files) {
    if (in_flight_.count(id) != 0) ++overlapping;
  }
  if (overlapping == 0) return result;
  ++coalesced_waits_;
  result.waited_files = overlapping;
  const BlockingRegion blocked;
  const auto start = std::chrono::steady_clock::now();
  cv_.wait(lock, [&] {
    for (FileId id : files) {
      if (in_flight_.count(id) != 0) return false;
    }
    return true;
  });
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
  return in_flight_.size();
}

}  // namespace fbc::service
