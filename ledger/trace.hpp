// In-memory span recorder for the ledger's traced runs.
//
// A span is one call across a layer boundary: a name, start and end
// (steady_clock nanoseconds), the span that caused it, and the request id
// of the job it belongs to. Spans are recorded into per-thread buffers, so
// recording takes no lock after a thread's first span; in-process seams
// run on the caller's thread, so nesting (the parent link) is exact there.
// A seam reached across the wire runs on a daemon worker thread with no
// open span, so it records parent "none" and request 0; its time is
// attributed to the client calls by linearity (see ledger.cpp).
//
// Set-up spans are always recorded. Load-generator and seam spans are
// recorded only while recording is on -- the timed phase -- so warm-up
// calls do not mix into the timed figures. Every recorded span feeds the
// per-name totals (count, summed duration, and a log-linear duration
// histogram for percentiles). Raw spans are kept only up to a fixed number
// per thread, so memory stays bounded on the fast in-process stacks;
// write_tsv() states how many were kept and how many were dropped.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

/// Span names, one per layer boundary the benchmark instruments.
enum class SpanName : std::uint8_t {
  Setup,               ///< one set-up repetition (root)
  SetupGen,            ///< workload generation
  SetupStack,          ///< stack construction
  SetupWarmup,         ///< untimed warm-up prefix
  LoadAcquire,         ///< load generator: acquire call
  LoadRelease,         ///< load generator: release call
  LoadReleaseAcquire,  ///< load generator: pipelined release + acquire
  EndpointAcquire,     ///< ServingEndpoint seam: acquire
  EndpointRelease,     ///< ServingEndpoint seam: release
  ShardAcquire,        ///< cluster::Shard seam: acquire
  ShardRelease,        ///< cluster::Shard seam: release
  kCount,
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

[[nodiscard]] const char* span_name(SpanName name) noexcept;

/// Nanosecond histogram: exact below 64 ns, then 64 linear sub-buckets
/// per octave up to 2^40 ns (bucket width < 1.6% of its lower bound).
class FineHistogram {
 public:
  void record(std::uint64_t ns);
  void merge(const FineHistogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile in microseconds, interpolated inside its bucket
  /// (0 when empty).
  [[nodiscard]] double quantile_us(double q) const noexcept;

 private:
  std::vector<std::uint64_t> buckets_;  // allocated on first record
  std::uint64_t count_ = 0;
};

/// Per-name totals over every span, kept or not.
struct SpanTotals {
  std::array<std::uint64_t, kSpanNames> count{};
  std::array<double, kSpanNames> sum_us{};
  std::array<FineHistogram, kSpanNames> hist;

  [[nodiscard]] std::uint64_t calls(SpanName n) const {
    return count[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] double sum(SpanName n) const {
    return sum_us[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] const FineHistogram& histogram(SpanName n) const {
    return hist[static_cast<std::size_t>(n)];
  }
};

/// One recorded span. `parent` indexes the same thread's span buffer.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = 0;
  SpanName name = SpanName::Setup;
};

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One thread's buffer. Only its own thread writes it.
struct ThreadTrace {
  struct Open {
    std::uint32_t index;  ///< kept span index, or kNoSpan when dropped
    std::uint64_t request;
  };
  std::vector<Span> spans;
  std::vector<Open> open;
  SpanTotals totals;
  std::uint64_t dropped = 0;
};

/// Owns every thread's buffer. One Tracer per traced stack.
class Tracer {
 public:
  /// `keep_per_thread` bounds the raw spans each thread keeps.
  explicit Tracer(std::size_t keep_per_thread);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's buffer, created on first use.
  ThreadTrace& local();

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  [[nodiscard]] std::size_t keep_per_thread() const noexcept {
    return keep_;
  }

  /// Turns recording of non-set-up spans on or off. Flip it only while
  /// no load-generator call is in flight.
  void set_recording(bool on) noexcept {
    recording_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool recording() const noexcept {
    return recording_.load(std::memory_order_acquire);
  }

  /// Merged totals of every thread. Call once no thread records.
  [[nodiscard]] SpanTotals totals() const;

  /// Writes kept spans as tab-separated rows (thread, index, parent,
  /// request, name, start_ns, end_ns) after a '#' summary line. Call once
  /// no thread records.
  void write_tsv(std::ostream& out) const;

 private:
  std::size_t keep_;
  Clock::time_point epoch_;
  std::uint64_t id_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;  // guards threads_ (registration and merge only)
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span. With a null tracer, or a non-set-up span while recording is
/// off, it records nothing. `request` 0 inherits the enclosing span's
/// request id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, std::uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  ThreadTrace* local_ = nullptr;
  SpanName name_;
  std::int64_t start_ns_ = 0;
};

}  // namespace ledger
