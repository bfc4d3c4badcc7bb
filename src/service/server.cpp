#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/registry.hpp"
#include "service/blocking.hpp"
#include "util/log.hpp"

namespace fbc::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Bounded exponential backoff: base * 2^(attempt-1), capped at 8x base.
std::chrono::milliseconds backoff_for(std::uint32_t base_ms,
                                      std::uint32_t attempt) {
  const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 3);
  return std::chrono::milliseconds(
      static_cast<std::uint64_t>(base_ms) << shift);
}

/// Elapsed microseconds between two steady_clock instants, clamped to 0.
std::uint64_t us_between(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

AdmitOrder parse_admit_order(const std::string& name) {
  if (name == "fifo") return AdmitOrder::Fifo;
  if (name == "value") return AdmitOrder::ValueDensity;
  throw std::invalid_argument("unknown admit order '" + name +
                              "' (expected fifo|value)");
}

const char* to_string(AdmitOrder order) noexcept {
  return order == AdmitOrder::Fifo ? "fifo" : "value";
}

BundleServer::BundleServer(const ServiceConfig& config,
                           const StorageBackend& mss)
    : config_(config),
      mss_(&mss),
      transfers_{.max_parallel = config.transfer_streams},
      cache_(config.cache_bytes, mss.catalog()),
      fail_rng_(config.seed ^ 0xf3f3f3f3f3f3f3f3ULL),
      acquire_ok_slot_(counters_.slot("acquire.ok")),
      release_ok_slot_(counters_.slot("release.ok")),
      release_unknown_slot_(counters_.slot("release.unknown")),
      transfers_slot_(counters_.slot("fetch.transfers")),
      coalesced_slot_(counters_.slot("acquire.coalesced")) {
  if (config_.max_queue == 0)
    throw std::invalid_argument("BundleServer: max_queue must be >= 1");
  if (config_.admission_batch == 0)
    throw std::invalid_argument("BundleServer: admission_batch must be >= 1");
  PolicyContext context;
  context.catalog = &mss.catalog();
  context.seed = config.seed;
  context.select_engine = config_.engine;
  policy_ = config_.policy_factory
                ? config_.policy_factory(config_.policy, context)
                : make_policy(config_.policy, context);
}

BundleServer::~BundleServer() { close(); }

void BundleServer::close() {
  std::lock_guard<OrderedMutex> lock(mu_);
  closed_ = true;
  notify_locked();
}

void BundleServer::set_admission_paused(bool paused) {
  std::lock_guard<OrderedMutex> lock(mu_);
  paused_ = paused;
  notify_locked();
}

bool BundleServer::admission_paused() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return paused_;
}

std::size_t BundleServer::choose_locked() const {
  if (config_.order == AdmitOrder::Fifo || queue_.size() <= 1) return 0;
  // ValueDensity: the request with the highest already-resident byte
  // fraction is the cheapest to admit; FIFO breaks ties (strictly-better
  // only), so equal-density requests cannot starve each other.
  std::size_t best = 0;
  double best_density = -1.0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Waiter& w = *queue_[i];
    Bytes resident = 0;
    for (FileId id : w.request->files) {
      if (cache_.contains(id)) resident += mss_->catalog().size_of(id);
    }
    const double density =
        w.bundle_bytes == 0
            ? 1.0
            : static_cast<double>(resident) /
                  static_cast<double>(w.bundle_bytes);
    if (density > best_density) {
      best = i;
      best_density = density;
    }
  }
  return best;
}

bool BundleServer::fits_locked(const Request& request) const {
  // Resident bytes split into pinned files, the bundle's own unpinned
  // files and the evictable rest, so one pass over the (canonical)
  // bundle prices the fit without walking the resident set.
  const FileCatalog& catalog = mss_->catalog();
  Bytes missing = 0;
  Bytes kept = cache_.pinned_bytes();
  for (FileId id : request.files) {
    if (!cache_.contains(id))
      missing += catalog.size_of(id);
    else if (!cache_.pinned(id))
      kept += catalog.size_of(id);
  }
  const Bytes evictable = cache_.used_bytes() - kept;
  return missing <= cache_.free_bytes() + evictable;
}

LeaseId BundleServer::admit_locked(const Request& request, Bytes bundle_bytes,
                                   Clock::time_point* granted_at,
                                   bool* request_hit,
                                   std::vector<FileId>* fetched) {
  policy_->on_job_arrival(request, cache_);
  std::vector<FileId>& missing = *fetched;
  for (FileId id : request.files)
    if (!cache_.contains(id)) missing.push_back(id);
  const Bytes missing_bytes = mss_->catalog().bundle_bytes(missing);
  metrics_.record_job(bundle_bytes, missing_bytes, request.size(),
                      request.size() - missing.size());
  if (missing.empty()) {
    *request_hit = true;
    policy_->on_request_hit(request, cache_);
  } else {
    *request_hit = false;
    if (cache_.free_bytes() < missing_bytes) {
      const Bytes needed = missing_bytes - cache_.free_bytes();
      for (FileId victim : policy_->select_victims(request, needed, cache_)) {
        metrics_.record_eviction(mss_->catalog().size_of(victim));
        cache_.evict(victim);  // throws on a leased (pinned) file
        policy_->on_file_evicted(victim);
      }
      if (cache_.free_bytes() < missing_bytes)
        throw std::runtime_error(
            "BundleServer: policy freed insufficient space");
    }
    for (FileId id : missing) cache_.insert(id);
    policy_->on_files_loaded(request, missing, cache_);
    // Register the transfer as in-flight before anyone else can be
    // granted an overlapping bundle: begin_fetch under mu_ closes the
    // window between "reserved (files look resident)" and "in-flight set
    // updated". The coalescer mutex is a leaf, so mu_ -> coalescer is the
    // only order that ever occurs.
    coalescer_.begin_fetch(missing);
  }
  *granted_at = Clock::now();
  return leases_.grant(request, cache_, *granted_at);
}

std::size_t BundleServer::drain_locked() {
  if (paused_ || closed_) return 0;
  std::size_t admitted = 0;
  while (admitted < config_.admission_batch && !queue_.empty()) {
    const std::size_t idx = choose_locked();
    Waiter& head = *queue_[idx];
    // A head sleeping off a failed transfer attempt blocks the line, just
    // as it does in the serial server (where it holds its place in queue_
    // across the backoff sleep).
    if (head.state == Waiter::State::Backoff) break;
    if (!fits_locked(*head.request)) break;
    // The simulated MSS transfer draw for this attempt happens *before*
    // the reserve, exactly as in the serial path, so a failed attempt
    // leaves the cache untouched. Only the chosen head ever draws, which
    // keeps the fail_rng_ sequence identical across batch sizes.
    if (config_.transfer_fail_prob > 0.0 &&
        fail_rng_.bernoulli(config_.transfer_fail_prob)) {
      ++head.failed_attempts;
      head.state = Waiter::State::Backoff;
      notify_locked();
      break;  // head-of-line: nothing behind it admits this pass
    }
    head.t_admit = Clock::now();
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    metrics_.record_queue_wait(
        static_cast<double>(admissions_ - head.admissions_at_enqueue));
    head.lease = admit_locked(*head.request, head.bundle_bytes,
                              &head.t_reserved, &head.request_hit,
                              &head.fetched);
    ++admissions_;
    head.state = Waiter::State::Admitted;
    ++admitted;
  }
  if (admitted > 0) {
    notify_locked();
    batch_sizes_.record(admitted);
  }
  return admitted;
}

AcquireResult BundleServer::acquire(const Request& request) {
  const auto t0 = Clock::now();
  AcquireResult result;
  const FileCatalog& catalog = mss_->catalog();
  const bool valid =
      !request.empty() &&
      std::all_of(request.files.begin(), request.files.end(),
                  [&](FileId id) { return catalog.valid(id); });
  // Pure per-request work stays outside mu_: the bundle size, and room
  // for every file the reserve could find missing.
  const Bytes bundle_bytes = valid ? catalog.request_bytes(request) : 0;
  Waiter waiter;
  if (valid) waiter.fetched.reserve(request.size());

  std::unique_lock<OrderedMutex> lock(mu_);
  auto leave_queue = [&] {
    queue_.erase(std::find(queue_.begin(), queue_.end(), &waiter));
    notify_locked();
  };
  // A rejection counts its outcome after mu_ is released, as a grant does.
  const auto reject = [&](AcquireStatus status, std::string_view counter) {
    result.status = status;
    lock.unlock();
    count_outcome(counter);
    return result;
  };
  if (closed_) return reject(AcquireStatus::Closed, "acquire.closed");
  if (!valid) {
    ++invalid_;
    return reject(AcquireStatus::InvalidRequest, "acquire.invalid");
  }
  if (bundle_bytes > cache_.capacity()) {
    metrics_.record_unserviceable();
    return reject(AcquireStatus::Unserviceable, "acquire.unserviceable");
  }
  if (queue_.size() >= config_.max_queue) {
    ++rejected_full_;
    // Load-proportional hint: deeper queue, longer suggested wait. The
    // product is computed in 64 bits and saturated at the config cap (and
    // at UINT32_MAX, the wire field's range) -- a large backoff times a
    // deep queue must never wrap into a tiny hint (a retry storm).
    const std::uint64_t hint =
        std::max<std::uint64_t>(1, config_.retry_backoff_ms) *
        (1 + static_cast<std::uint64_t>(queue_.size()));
    const std::uint64_t cap =
        config_.retry_after_cap_ms == 0
            ? std::numeric_limits<std::uint32_t>::max()
            : config_.retry_after_cap_ms;
    result.retry_after_ms = static_cast<std::uint32_t>(std::min(hint, cap));
    return reject(AcquireStatus::QueueFull, "acquire.queue_full");
  }
  const std::size_t queue_depth = queue_.size();

  waiter.request = &request;
  waiter.bundle_bytes = bundle_bytes;
  waiter.admissions_at_enqueue = admissions_;
  queue_.push_back(&waiter);
  // The timeout runs from arrival; t0 is that instant, so the deadline
  // costs no clock read of its own.
  const auto deadline = t0 + std::chrono::milliseconds(config_.timeout_ms);

  // Admission loop. Whichever waiter thread holds mu_ drains the queue
  // (drain_locked) for everyone, so this thread may be admitted while
  // asleep in cv_.wait -- after every wake the *state* decides, never the
  // wait's own return reason (a timeout that raced an admission must
  // still take the grant: the lease already exists).
  for (;;) {
    if (waiter.state == Waiter::State::Admitted) break;
    if (closed_) {
      leave_queue();
      return reject(AcquireStatus::Closed, "acquire.closed");
    }
    if (waiter.state == Waiter::State::Backoff) {
      // A drain pass chose this waiter and its transfer draw failed.
      if (waiter.failed_attempts > config_.max_retries) {
        ++transfer_failures_;
        leave_queue();
        result.retries = waiter.failed_attempts - 1;
        return reject(AcquireStatus::TransferFailed, "acquire.transfer_failed");
      }
      ++transfer_retries_;
      const auto backoff =
          backoff_for(config_.retry_backoff_ms, waiter.failed_attempts);
      lock.unlock();  // keep our place in queue_, release mu_ for the sleep
      {
        const BlockingRegion backing_off;
        std::this_thread::sleep_for(backoff);
      }
      lock.lock();
      waiter.state = Waiter::State::Queued;
      drain_locked();
      continue;
    }
    // A drain pass can change *our own* state (admit us, or mark us
    // Backoff after a failed draw) -- re-check before sleeping, or the
    // notify that happened inside drain_locked is a lost wakeup.
    if (drain_locked() > 0 || waiter.state != Waiter::State::Queued) continue;
    const BlockingRegion parked;
    ++parked_;
    const auto wait_result = cv_.wait_until(lock, deadline);
    --parked_;
    if (waiter.state != Waiter::State::Queued) continue;
    if (wait_result == std::cv_status::timeout) {
      leave_queue();
      ++timed_out_;
      result.retries = waiter.failed_attempts;
      return reject(AcquireStatus::TimedOut, "acquire.timed_out");
    }
  }

  result.lease = waiter.lease;
  result.request_hit = waiter.request_hit;
  result.retries = waiter.failed_attempts;
  lock.unlock();
  // Past this point no other thread touches `waiter`: it left queue_ when
  // it was admitted.
  const std::vector<FileId>& fetched = waiter.fetched;

  // Fetch phase: the bundle is reserved (pinned), so the simulated
  // transfer -- its LPT makespan included -- runs without the lock while
  // other admissions overlap.
  if (!fetched.empty()) {
    const double stage_s = transfers_.stage_seconds(fetched, *mss_);
    if (config_.time_scale > 0.0 && stage_s > 0.0) {
      const BlockingRegion staging;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          stage_s * config_.time_scale));
    }
    coalescer_.complete_fetch(fetched);
  }
  const auto t_fetched = Clock::now();
  // Our own files are complete by now; this blocks only when another
  // admission's transfer still has part of our bundle in flight.
  const CoalesceWait cwait = coalescer_.wait_for(request.files);
  result.status = AcquireStatus::Ok;

  // Nothing ran since t_fetched unless the coalescer blocked.
  const auto t_end = cwait.waited_files > 0 ? Clock::now() : t_fetched;
  // Duration histograms are Ok-grants only: their counts tie to
  // stats.requests once in-flight acquires have drained.
  std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
  hists_[kQueueUs].record(us_between(t0, waiter.t_admit));
  hists_[kReserveUs].record(us_between(waiter.t_admit, waiter.t_reserved));
  hists_[kFetchUs].record(us_between(waiter.t_reserved, t_fetched));
  hists_[kTotalUs].record(us_between(t0, t_end));
  hists_[kQueueDepth].record(queue_depth);
  if (!fetched.empty()) ++*transfers_slot_;
  if (cwait.waited_files > 0) {
    ++*coalesced_slot_;
    hists_[kCoalesceUs].record(cwait.wait_us);
  }
  ++*acquire_ok_slot_;
  return result;
}

bool BundleServer::release(LeaseId lease) {
  std::unique_lock<OrderedMutex> lock(mu_);
  // One mu_ hold drops the lease and its pins together, so audits and
  // admissions never see one without the other.
  Clock::time_point granted_at;
  const bool known = leases_.release(lease, cache_, &granted_at);
  if (known) {
    ++released_;
    notify_locked();
  }
  lock.unlock();
  if (!known) {
    std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
    ++*release_unknown_slot_;
    return false;
  }
  const std::uint64_t held_us = us_between(granted_at, Clock::now());
  std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
  ++*release_ok_slot_;
  hists_[kHoldUs].record(held_us);
  return true;
}

void BundleServer::count_outcome(std::string_view counter) {
  std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
  counters_.add(counter);
}

std::vector<FileId> BundleServer::resident_files() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  const auto resident = cache_.resident_files();
  std::vector<FileId> files(resident.begin(), resident.end());
  std::sort(files.begin(), files.end());
  return files;
}

constexpr std::array<std::string_view, BundleServer::kHistCount>
    BundleServer::kHistNames = {
        "acquire.coalesce_us", "acquire.fetch_us",   "acquire.queue_depth",
        "acquire.queue_us",    "acquire.reserve_us", "acquire.total_us",
        "admit.batch_size",    "lease.hold_us",
};

MetricsSnapshot BundleServer::metrics() const {
  MetricsSnapshot m;
  obs::Histogram batch_sizes;
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    ServiceStats& s = m.stats;
    s.requests = metrics_.jobs();
    s.request_hits = metrics_.request_hits();
    s.rejected_full = rejected_full_;
    s.timed_out = timed_out_;
    s.unserviceable = metrics_.unserviceable();
    s.invalid = invalid_;
    s.transfer_retries = transfer_retries_;
    s.transfer_failures = transfer_failures_;
    s.leases_granted = leases_.granted();
    s.leases_released = released_;
    s.active_leases = leases_.active();
    s.queue_depth = queue_.size();
    s.evictions = metrics_.evictions();
    s.bytes_requested = metrics_.bytes_requested();
    s.bytes_missed = metrics_.bytes_missed();
    s.bytes_evicted = metrics_.bytes_evicted();
    s.used_bytes = cache_.used_bytes();
    s.capacity_bytes = cache_.capacity();
    s.resident_files = cache_.file_count();
    batch_sizes = batch_sizes_;
  }
  std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
  m.counters = counters_.snapshot();
  static_assert(std::ranges::none_of(kHistNames, &std::string_view::empty),
                "every BundleServer::Hist needs a name in kHistNames");
  // The wire encoder enforces strictly increasing histogram names
  // (canonical frame form).
  static_assert(std::ranges::adjacent_find(kHistNames,
                                           std::greater_equal<>{}) ==
                    kHistNames.end(),
                "kHistNames must be strictly increasing");
  for (std::size_t h = 0; h < kHistCount; ++h)
    m.histograms.push_back({std::string(kHistNames[h]),
                            h == kBatchSize ? batch_sizes : hists_[h]});
  return m;
}

std::vector<std::string> BundleServer::audit() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  std::vector<std::string> violations;
  const FileCatalog& catalog = mss_->catalog();

  // Capacity: byte accounting must match a from-scratch recount and never
  // exceed capacity; the resident list must be duplicate-free.
  Bytes recount = 0;
  Bytes pinned_recount = 0;
  std::unordered_set<FileId> seen;
  for (FileId id : cache_.resident_files()) {
    recount += catalog.size_of(id);
    if (cache_.pinned(id)) pinned_recount += catalog.size_of(id);
    if (!seen.insert(id).second)
      violations.push_back("serve.capacity: duplicate resident file " +
                           std::to_string(id));
  }
  if (recount != cache_.used_bytes())
    violations.push_back(
        "serve.capacity: used_bytes " + std::to_string(cache_.used_bytes()) +
        " != recomputed resident sum " + std::to_string(recount));
  // fits_locked prices evictable bytes from the running pinned total.
  if (pinned_recount != cache_.pinned_bytes())
    violations.push_back("serve.capacity: pinned_bytes " +
                         std::to_string(cache_.pinned_bytes()) +
                         " != recomputed pinned sum " +
                         std::to_string(pinned_recount));
  if (cache_.used_bytes() > cache_.capacity())
    violations.push_back("serve.capacity: used exceeds capacity");

  // Leases: every leased file must be resident and pinned; every pinned
  // file must be covered by at least one live lease. The table is walked
  // in lease-id order, so violations come out sorted by lease id.
  std::unordered_set<FileId> covered;
  for (const auto& [lease, entry] : leases_.leases()) {
    for (FileId id : entry.bundle.files) {
      covered.insert(id);
      if (!cache_.contains(id))
        violations.push_back("serve.lease: lease " + std::to_string(lease) +
                             " covers non-resident file " +
                             std::to_string(id));
      else if (!cache_.pinned(id))
        violations.push_back("serve.lease: lease " + std::to_string(lease) +
                             " covers unpinned file " + std::to_string(id));
    }
  }
  for (FileId id : cache_.resident_files()) {
    if (cache_.pinned(id) && !covered.contains(id))
      violations.push_back("serve.lease: pinned file " + std::to_string(id) +
                           " has no covering lease");
  }

  // Accounting: admissions and lease counters must tie out.
  if (leases_.granted() != metrics_.jobs())
    violations.push_back("serve.accounting: leases granted " +
                         std::to_string(leases_.granted()) +
                         " != jobs admitted " +
                         std::to_string(metrics_.jobs()));
  if (leases_.active() != leases_.granted() - released_)
    violations.push_back("serve.accounting: active leases inconsistent");
  if (metrics_.request_hits() > metrics_.jobs())
    violations.push_back("serve.accounting: more hits than jobs");
  if (metrics_.bytes_missed() > metrics_.bytes_requested())
    violations.push_back("serve.accounting: missed > requested bytes");
  return violations;
}

}  // namespace fbc::service
