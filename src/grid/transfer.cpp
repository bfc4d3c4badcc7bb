#include "grid/transfer.hpp"

#include <algorithm>
#include <functional>
#include <vector>

namespace fbc {

double TransferModel::stage_seconds(std::span<const FileId> files,
                                    const StorageBackend& mss) const {
  if (files.empty()) return 0.0;
  const std::size_t streams = std::max<std::size_t>(1, max_parallel);

  // Per-thread scratch, reused across calls: once it has grown to the
  // largest bundle and stream count seen, staging allocates nothing.
  thread_local std::vector<double> durations;
  thread_local std::vector<double> loads;
  durations.clear();
  for (FileId id : files) durations.push_back(mss.fetch_seconds(id));
  // LPT: longest first onto the least-loaded stream. `loads` is a
  // min-heap of per-stream finish times.
  std::sort(durations.begin(), durations.end(), std::greater<>());

  loads.assign(streams, 0.0);
  double makespan = 0.0;
  for (double d : durations) {
    std::pop_heap(loads.begin(), loads.end(), std::greater<>());
    loads.back() += d;
    makespan = std::max(makespan, loads.back());
    std::push_heap(loads.begin(), loads.end(), std::greater<>());
  }
  return makespan;
}

}  // namespace fbc
