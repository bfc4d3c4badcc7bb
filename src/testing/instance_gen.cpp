#include "testing/instance_gen.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "workload/distributions.hpp"
#include "workload/file_pool.hpp"

namespace fbc::testing {
namespace {

/// Draws a bundle of `k` distinct files, biased toward the hot set.
std::vector<FileId> draw_bundle(std::size_t k, std::size_t num_files,
                                double hot_prob, std::size_t hot_files,
                                Rng& rng) {
  const std::size_t hot = std::min(std::max<std::size_t>(hot_files, 1),
                                   num_files);
  std::vector<FileId> files;
  files.reserve(k);
  // Rejection-sample distinct ids; k is tiny (<= max_bundle_files). Once
  // every hot id is taken the draw must fall back to the whole catalog or
  // hot_prob == 1 with k > hot would never terminate.
  while (files.size() < k) {
    const std::size_t hot_used = static_cast<std::size_t>(
        std::count_if(files.begin(), files.end(),
                      [&](FileId id) { return id < hot; }));
    const std::size_t pool =
        hot_used < hot && rng.bernoulli(hot_prob) ? hot : num_files;
    const FileId id = static_cast<FileId>(rng.index(pool));
    if (std::find(files.begin(), files.end(), id) == files.end())
      files.push_back(id);
  }
  return files;
}

std::size_t uniform_size(std::size_t lo, std::size_t hi, Rng& rng) {
  return static_cast<std::size_t>(
      rng.uniform_u64(static_cast<std::uint64_t>(lo),
                      static_cast<std::uint64_t>(std::max(lo, hi))));
}

FileCatalog draw_catalog(std::size_t num_files, Bytes min_bytes,
                         Bytes max_bytes, Rng& rng) {
  FilePoolConfig pool;
  pool.num_files = num_files;
  pool.min_bytes = std::max<Bytes>(1, min_bytes);
  pool.max_bytes = std::max(pool.min_bytes, max_bytes);
  pool.model = FileSizeModel::Uniform;
  return generate_file_pool(pool, rng);
}

}  // namespace

std::vector<SelectionItem> SelectInstance::items() const {
  std::vector<SelectionItem> out;
  out.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.push_back(SelectionItem{&requests[i], values[i]});
  }
  return out;
}

std::vector<std::uint32_t> SelectInstance::degrees() const {
  std::vector<std::uint32_t> out(catalog.count(), 0);
  for (const Request& r : requests) {
    for (FileId id : r.files) ++out[id];
  }
  return out;
}

SelectInstance generate_select_instance(const SelectGenConfig& config,
                                        Rng& rng) {
  SelectInstance inst;
  const std::size_t num_files =
      uniform_size(std::max<std::size_t>(1, config.min_files),
                   config.max_files, rng);
  inst.catalog = draw_catalog(num_files, config.min_file_bytes,
                              config.max_file_bytes, rng);

  const std::size_t num_requests =
      uniform_size(std::max<std::size_t>(1, config.min_requests),
                   config.max_requests, rng);
  for (std::size_t r = 0; r < num_requests; ++r) {
    const std::size_t k = uniform_size(
        1, std::min(config.max_bundle_files, num_files), rng);
    inst.requests.emplace_back(
        draw_bundle(k, num_files, config.hot_prob, config.hot_files, rng));
    inst.values.push_back(
        static_cast<double>(rng.uniform_u64(0, config.max_value)));
  }

  // Capacity anywhere from "nothing fits" to "everything fits".
  inst.capacity = rng.uniform_u64(0, inst.catalog.total_bytes());

  if (rng.bernoulli(config.free_file_prob)) {
    const std::size_t count = 1 + rng.index(std::min<std::size_t>(
                                      3, num_files));
    for (std::size_t idx : rng.sample_without_replacement(num_files, count)) {
      inst.free_files.push_back(static_cast<FileId>(idx));
    }
  }
  return inst;
}

SimInstance generate_sim_instance(const SimGenConfig& config, Rng& rng) {
  SimInstance inst;
  const std::size_t num_files =
      uniform_size(std::max<std::size_t>(1, config.min_files),
                   config.max_files, rng);
  inst.trace.catalog = draw_catalog(num_files, config.min_file_bytes,
                                    config.max_file_bytes, rng);

  // Distinct request pool with hot-set overlap.
  const std::size_t pool_size = uniform_size(
      std::max<std::size_t>(1, config.min_pool), config.max_pool, rng);
  std::vector<Request> pool;
  pool.reserve(pool_size);
  for (std::size_t r = 0; r < pool_size; ++r) {
    const std::size_t k = uniform_size(
        1, std::min(config.max_bundle_files, num_files), rng);
    pool.emplace_back(
        draw_bundle(k, num_files, config.hot_prob, config.hot_files, rng));
  }

  // Job stream: uniform or Zipf popularity over the pool.
  const std::size_t num_jobs =
      uniform_size(std::max<std::size_t>(1, config.min_jobs), config.max_jobs,
                   rng);
  inst.trace.jobs.reserve(num_jobs);

  // Mid-trace popularity drift: from the halfway point on, rotate the pool
  // indexing by half the pool so the popular bundles swap identity -- a
  // phase change for adaptive policies and the OPTgen window. The guard
  // short-circuits before touching the Rng when the knob is off, keeping
  // existing seeded streams byte-identical.
  std::size_t drift_at = num_jobs;
  std::size_t drift_shift = 0;
  if (config.drift_prob > 0 && rng.bernoulli(config.drift_prob)) {
    drift_at = num_jobs / 2;
    drift_shift = pool.size() / 2;
  }
  const auto pool_index = [&](std::size_t raw, std::size_t j) {
    return j >= drift_at ? (raw + drift_shift) % pool.size() : raw;
  };

  if (rng.bernoulli(config.zipf_prob)) {
    const double alpha =
        rng.uniform_double(0.5, std::max(0.5, config.zipf_alpha_max));
    ZipfSampler zipf(pool.size(), alpha);
    for (std::size_t j = 0; j < num_jobs; ++j) {
      inst.trace.jobs.push_back(pool[pool_index(zipf.sample(rng), j)]);
    }
  } else {
    for (std::size_t j = 0; j < num_jobs; ++j) {
      inst.trace.jobs.push_back(pool[pool_index(rng.index(pool.size()), j)]);
    }
  }

  // Cache capacity: usually large enough for the biggest bundle, sometimes
  // deliberately undersized to hit the unserviceable path.
  Bytes max_bundle = 1;
  for (const Request& r : pool) {
    max_bundle = std::max(max_bundle, inst.trace.catalog.request_bytes(r));
  }
  const Bytes total = inst.trace.catalog.total_bytes();
  if (rng.bernoulli(config.undersized_prob)) {
    inst.config.cache_bytes = rng.uniform_u64(1, max_bundle);
  } else {
    inst.config.cache_bytes = rng.uniform_u64(max_bundle, total);
  }

  inst.config.queue_length = uniform_size(
      1, std::max<std::size_t>(1, config.max_queue_length), rng);
  if (inst.config.queue_length > 1) {
    inst.config.queue_mode =
        rng.bernoulli(0.5) ? QueueMode::Batch : QueueMode::Sliding;
  }
  inst.config.warmup_jobs = uniform_size(0, config.max_warmup, rng);
  return inst;
}

Trace select_instance_to_trace(const SelectInstance& instance) {
  Trace trace;
  trace.catalog = instance.catalog;
  trace.jobs = instance.requests;
  trace.set_meta("kind", "select");
  trace.set_meta("capacity", std::to_string(instance.capacity));
  {
    std::ostringstream values;
    for (std::size_t i = 0; i < instance.values.size(); ++i) {
      if (i > 0) values << ' ';
      values << instance.values[i];
    }
    trace.set_meta("values", values.str());
  }
  if (!instance.free_files.empty()) {
    std::ostringstream free;
    for (std::size_t i = 0; i < instance.free_files.size(); ++i) {
      if (i > 0) free << ' ';
      free << instance.free_files[i];
    }
    trace.set_meta("free", free.str());
  }
  return trace;
}

SelectInstance select_instance_from_trace(const Trace& trace) {
  const std::string* kind = trace.meta_value("kind");
  if (kind == nullptr || *kind != "select")
    throw std::runtime_error(
        "select_instance_from_trace: trace meta 'kind' is not 'select'");
  const std::string* capacity = trace.meta_value("capacity");
  const std::string* values = trace.meta_value("values");
  if (capacity == nullptr || values == nullptr)
    throw std::runtime_error(
        "select_instance_from_trace: missing 'capacity' or 'values' meta");

  SelectInstance inst;
  inst.catalog = trace.catalog;
  inst.requests = trace.jobs;
  inst.capacity = meta_number<Bytes>("capacity", *capacity);

  std::istringstream value_row(*values);
  double v = 0.0;
  while (value_row >> v) {
    if (v < 0.0)
      throw std::runtime_error(
          "select_instance_from_trace: negative value in 'values' meta");
    inst.values.push_back(v);
  }
  if (inst.values.size() != inst.requests.size())
    throw std::runtime_error(
        "select_instance_from_trace: 'values' count does not match jobs");

  if (const std::string* free = trace.meta_value("free")) {
    std::istringstream free_row(*free);
    std::uint64_t id = 0;
    while (free_row >> id) {
      if (id >= inst.catalog.count())
        throw std::runtime_error(
            "select_instance_from_trace: free file id out of range");
      inst.free_files.push_back(static_cast<FileId>(id));
    }
    std::sort(inst.free_files.begin(), inst.free_files.end());
  }
  return inst;
}

}  // namespace fbc::testing
