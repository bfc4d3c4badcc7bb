#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

namespace ledger {
namespace {

constexpr std::size_t kSubBits = 6;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // 64
constexpr int kMaxBits = 40;  // durations clamp at 2^40 ns (~18 min)
constexpr std::size_t kFineBuckets =
    kSub + (static_cast<std::size_t>(kMaxBits) - kSubBits) * kSub;

std::size_t fine_index(std::uint64_t v) noexcept {
  v = std::min(v, (std::uint64_t{1} << kMaxBits) - 1);
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = static_cast<int>(std::bit_width(v)) - 1;  // >= kSubBits
  const int shift = e - static_cast<int>(kSubBits);
  const std::uint64_t mantissa = (v >> shift) - kSub;
  return static_cast<std::size_t>(
      kSub + static_cast<std::uint64_t>(shift) * kSub + mantissa);
}

/// [lower, lower + width) of bucket `i`.
std::pair<double, double> fine_bounds(std::size_t i) noexcept {
  if (i < kSub) return {static_cast<double>(i), 1.0};
  const std::size_t shift = (i - kSub) / kSub;
  const std::uint64_t mantissa = (i - kSub) % kSub;
  const double width = std::ldexp(1.0, static_cast<int>(shift));
  return {static_cast<double>(kSub + mantissa) * width, width};
}

std::atomic<std::uint64_t> g_tracer_ids{1};

struct LocalSlot {
  std::uint64_t tracer_id = 0;
  ThreadTrace* trace = nullptr;
};
thread_local LocalSlot t_slot;

}  // namespace

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::Setup:
      return "setup";
    case SpanName::SetupGen:
      return "setup.gen";
    case SpanName::SetupStack:
      return "setup.stack";
    case SpanName::SetupWarmup:
      return "setup.warmup";
    case SpanName::LoadAcquire:
      return "loadgen.acquire";
    case SpanName::LoadRelease:
      return "loadgen.release";
    case SpanName::LoadReleaseAcquire:
      return "loadgen.release_acquire";
    case SpanName::EndpointAcquire:
      return "endpoint.acquire";
    case SpanName::EndpointRelease:
      return "endpoint.release";
    case SpanName::ShardAcquire:
      return "shard.acquire";
    case SpanName::ShardRelease:
      return "shard.release";
    case SpanName::kCount:
      break;
  }
  return "?";
}

void FineHistogram::record(std::uint64_t ns) {
  if (buckets_.empty()) buckets_.assign(kFineBuckets, 0);
  ++buckets_[fine_index(ns)];
  ++count_;
}

void FineHistogram::merge(const FineHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kFineBuckets, 0);
  for (std::size_t i = 0; i < kFineBuckets; ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double FineHistogram::quantile_us(double q) const noexcept {
  if (count_ == 0) return 0.0;
  // Nearest-rank: the smallest observation with at least q*n at or
  // below, placed linearly inside its bucket by its rank there.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kFineBuckets; ++i) {
    if (seen + buckets_[i] >= rank) {
      const auto [lower, width] = fine_bounds(i);
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[i]);
      return (lower + width * within) / 1000.0;
    }
    seen += buckets_[i];
  }
  return 0.0;
}

Tracer::Tracer(std::size_t keep_per_thread)
    : keep_(keep_per_thread),
      epoch_(Clock::now()),
      id_(g_tracer_ids.fetch_add(1, std::memory_order_relaxed)) {}

ThreadTrace& Tracer::local() {
  if (t_slot.tracer_id != id_) {
    auto trace = std::make_unique<ThreadTrace>();
    trace->spans.reserve(keep_);
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::move(trace));
    t_slot = {id_, threads_.back().get()};
  }
  return *t_slot.trace;
}

SpanTotals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTotals out;
  for (const auto& t : threads_) {
    for (std::size_t n = 0; n < kSpanNames; ++n) {
      out.count[n] += t->totals.count[n];
      out.sum_us[n] += t->totals.sum_us[n];
      out.hist[n].merge(t->totals.hist[n]);
    }
  }
  return out;
}

void Tracer::write_tsv(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  for (const auto& t : threads_) {
    kept += t->spans.size();
    dropped += t->dropped;
  }
  out << "# spans kept " << kept << ", dropped " << dropped << " (first "
      << keep_ << " per thread kept); times in ns since tracer start\n";
  out << "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (std::size_t ti = 0; ti < threads_.size(); ++ti) {
    const auto& spans = threads_[ti]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << ti << '\t' << i << '\t';
      if (s.parent == kNoSpan) {
        out << '-';
      } else {
        out << s.parent;
      }
      out << '\t' << s.request << '\t' << span_name(s.name) << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanName name, std::uint64_t request)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  if (name > SpanName::SetupWarmup && !tracer_->recording()) {
    tracer_ = nullptr;
    return;
  }
  local_ = &tracer_->local();
  const ThreadTrace::Open* parent =
      local_->open.empty() ? nullptr : &local_->open.back();
  if (request == 0 && parent != nullptr) request = parent->request;
  std::uint32_t index = kNoSpan;
  if (local_->spans.size() < tracer_->keep_per_thread()) {
    index = static_cast<std::uint32_t>(local_->spans.size());
    Span span;
    span.request = request;
    span.parent = parent != nullptr ? parent->index : kNoSpan;
    span.name = name;
    local_->spans.push_back(span);
  } else {
    ++local_->dropped;
  }
  local_->open.push_back({index, request});
  start_ns_ = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const std::int64_t end_ns = tracer_->now_ns();
  const std::uint32_t index = local_->open.back().index;
  local_->open.pop_back();
  if (index != kNoSpan) {
    local_->spans[index].start_ns = start_ns_;
    local_->spans[index].end_ns = end_ns;
  }
  const auto n = static_cast<std::size_t>(name_);
  const auto dur_ns = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, end_ns - start_ns_));
  ++local_->totals.count[n];
  local_->totals.sum_us[n] += static_cast<double>(dur_ns) / 1000.0;
  local_->totals.hist[n].record(dur_ns);
}

}  // namespace ledger
