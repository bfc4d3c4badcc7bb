// Bench-side decorators over three public interfaces of the stack.
//
//   EndpointSeam    service::ServingEndpoint (between BundleDaemon or the
//                   load generator and BundleServer / ClusterRouter)
//   ShardSeam       cluster::Shard (between ClusterRouter and LocalShard)
//   CountingBackend StorageBackend (between BundleServer and the MSS model)
//
// The first two record spans and exist only in traced stacks. The third
// is in every stack: the server exports no staging seconds, so summing
// fetch_seconds() here is the only way to get modeled MSS time without
// touching the library. BundleServer calls it under its admission mutex,
// so it only bumps relaxed atomics.
#pragma once

#include <atomic>
#include <memory>

#include "cluster/shard.hpp"
#include "grid/backend.hpp"
#include "service/endpoint.hpp"
#include "trace.hpp"

namespace ledger {

class EndpointSeam final : public fbc::service::ServingEndpoint {
 public:
  /// `inner` and `tracer` must outlive the seam.
  EndpointSeam(fbc::service::ServingEndpoint& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  fbc::service::AcquireResult acquire(const fbc::Request& request) override {
    const ScopedSpan span(tracer_, SpanName::EndpointAcquire);
    return inner_->acquire(request);
  }
  bool release(fbc::service::LeaseId lease) override {
    const ScopedSpan span(tracer_, SpanName::EndpointRelease);
    return inner_->release(lease);
  }
  [[nodiscard]] fbc::service::ServiceStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] fbc::service::MetricsSnapshot metrics() const override {
    return inner_->metrics();
  }
  [[nodiscard]] fbc::service::EndpointInfo info() const override {
    return inner_->info();
  }
  [[nodiscard]] bool legacy_wire() const override {
    return inner_->legacy_wire();
  }
  void close() override { inner_->close(); }

 private:
  fbc::service::ServingEndpoint* inner_;
  Tracer* tracer_;
};

class ShardSeam final : public fbc::cluster::Shard {
 public:
  /// `tracer` and `calls` must outlive the seam; `calls` counts this
  /// shard's acquire and release calls (for the imbalance ratio).
  ShardSeam(std::unique_ptr<fbc::cluster::Shard> inner, Tracer& tracer,
            std::atomic<std::uint64_t>& calls)
      : inner_(std::move(inner)), tracer_(&tracer), calls_(&calls) {}

  fbc::service::AcquireResult acquire(const fbc::Request& request) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    const ScopedSpan span(tracer_, SpanName::ShardAcquire);
    return inner_->acquire(request);
  }
  bool release(fbc::service::LeaseId lease) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    const ScopedSpan span(tracer_, SpanName::ShardRelease);
    return inner_->release(lease);
  }
  [[nodiscard]] fbc::service::ServiceStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] fbc::service::MetricsSnapshot metrics() const override {
    return inner_->metrics();
  }
  void close() override { inner_->close(); }
  void invalidate_pool() override { inner_->invalidate_pool(); }

 private:
  std::unique_ptr<fbc::cluster::Shard> inner_;
  Tracer* tracer_;
  std::atomic<std::uint64_t>* calls_;
};

/// Totals seen at the StorageBackend seam.
struct StagingTotals {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  double fetch_s = 0.0;
};

class CountingBackend final : public fbc::StorageBackend {
 public:
  /// `inner` must outlive the backend.
  explicit CountingBackend(const fbc::StorageBackend& inner)
      : inner_(&inner) {}

  [[nodiscard]] const fbc::FileCatalog& catalog() const noexcept override {
    return inner_->catalog();
  }

  /// The server asks for the fetch time of exactly the files it stages.
  [[nodiscard]] double fetch_seconds(fbc::FileId id) const override {
    const double seconds = inner_->fetch_seconds(id);
    files_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(inner_->catalog().size_of(id), std::memory_order_relaxed);
    fetch_s_.fetch_add(seconds, std::memory_order_relaxed);
    return seconds;
  }

  /// Snapshot; exact once no admission is in flight.
  [[nodiscard]] StagingTotals totals() const noexcept {
    return {files_.load(std::memory_order_relaxed),
            bytes_.load(std::memory_order_relaxed),
            fetch_s_.load(std::memory_order_relaxed)};
  }

 private:
  const fbc::StorageBackend* inner_;
  mutable std::atomic<std::uint64_t> files_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
  mutable std::atomic<double> fetch_s_{0.0};
};

}  // namespace ledger
