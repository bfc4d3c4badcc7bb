// BundleServer: thread-safe bundle-serving layer over the cache/policy
// stack.
//
// This is the concurrent counterpart of the single-threaded SRM loop: many
// client threads call acquire() simultaneously, each request passes through
// a bounded admission queue, and admission itself follows a two-phase
// protocol:
//
//   reserve  under the admission lock: the policy picks victims, the cache
//            evicts them and inserts the missing files, and every bundle
//            file is pinned through a lease -- from this instant no other
//            admission can evict the bundle;
//   fetch    outside the lock: the simulated MSS transfer runs (scaled
//            stage time, injectable failures with bounded exponential-
//            backoff retry before the reserve); concurrent admissions
//            whose bundles overlap an in-flight transfer wait on that one
//            transfer through the FetchCoalescer instead of starting
//            their jobs before the bytes arrive;
//   lease    the lease id is returned to the caller, whose job runs with
//            the bundle guaranteed resident;
//   release  release() unpins the bundle; files become evictable once the
//            last overlapping lease is gone.
//
// Admission is *batched*: whichever waiter thread holds the admission
// mutex drains up to ServiceConfig::admission_batch queued entries in one
// pass (drain_locked), admitting each in exactly the order the serial
// one-at-a-time server would (choose_locked per entry, FIFO or
// value-density), granting the lease, and handing the entry back to its
// own thread for the fetch phase. One lock acquisition -- and, with the
// incremental selection engine, one cheap dirty-entry rescore -- is
// amortized across up to k grants. Batching is decision-equivalent to
// admission_batch=1 by construction: the per-entry choose/fit/admit
// sequence is byte-identical, only the lock round-trips between entries
// disappear (testing/sched_sim pins this equivalence).
//
// All *decision* logic stays in the existing engines: the replacement
// policy chooses victims exactly as in the simulator (ServiceConfig::
// engine selects the reference or incremental OptFileBundle selector,
// and shadow_diff runs both in lock-step, asserting bit-identical
// decisions), and CacheMetrics does the accounting. The server owns only
// concurrency, queuing and backpressure, so invariants checked by the
// fuzzing oracles carry over unchanged (audit() re-checks them
// independently).
//
// Lock order: see the "Lock hierarchy" table in docs/SERVING.md. Every
// mutex in this layer is a util/ordered_mutex.hpp OrderedMutex carrying
// its level from that table; fbclint L007 checks the order statically
// from the fbc:lock-level annotations below, and FBC_LOCK_CHECK builds
// abort at runtime on any inversion.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/metrics.hpp"
#include "cache/policy.hpp"
#include "core/registry.hpp"
#include "grid/backend.hpp"
#include "grid/transfer.hpp"
#include "obs/counter.hpp"
#include "obs/histogram.hpp"
#include "service/coalesce.hpp"
#include "service/endpoint.hpp"
#include "service/lease.hpp"
#include "service/protocol.hpp"
#include "util/ordered_mutex.hpp"
#include "util/rng.hpp"

namespace fbc::service {

/// Order in which queued requests are admitted (the service-layer mirror
/// of the SRM's ServiceOrder).
enum class AdmitOrder {
  Fifo,          ///< strict arrival order
  ValueDensity,  ///< highest resident-byte fraction first (cheapest admit)
};

/// Parses "fifo" / "value" (throws std::invalid_argument otherwise).
[[nodiscard]] AdmitOrder parse_admit_order(const std::string& name);

/// Returns "fifo" / "value", the inverse of parse_admit_order.
[[nodiscard]] const char* to_string(AdmitOrder order) noexcept;

/// Configuration of the serving layer. Every field except policy_factory is
/// a flag of fbcd, fbcload and fbcgrid: the row list kServiceFlags in
/// tools/serving_common.hpp registers, parses and forwards them, and its
/// arity check fails the build when a field here has no row.
struct ServiceConfig {
  /// Staging cache capacity.
  Bytes cache_bytes = 1 * GiB;
  /// Replacement policy name (core/registry.hpp).
  std::string policy = "optfb";
  /// Admission queue bound; acquires beyond it are rejected with a
  /// retry-after hint instead of queuing (backpressure).
  std::size_t max_queue = 64;
  /// Admission order among queued requests.
  AdmitOrder order = AdmitOrder::Fifo;
  /// Per-request admission timeout (time waited in the queue).
  std::uint32_t timeout_ms = 30000;
  /// MSS transfer attempts beyond the first before giving up.
  std::uint32_t max_retries = 3;
  /// Base of the exponential backoff between transfer attempts; attempt k
  /// waits retry_backoff_ms * 2^(k-1), capped at 8x the base.
  std::uint32_t retry_backoff_ms = 10;
  /// Probability that one simulated MSS transfer attempt fails.
  double transfer_fail_prob = 0.0;
  /// Wall-clock seconds slept per simulated staging second (0 = no sleep;
  /// staging is instantaneous but still counted).
  double time_scale = 0.0;
  /// Parallel MSS transfer streams (grid/transfer LPT makespan).
  std::size_t transfer_streams = 4;
  /// Seed for the failure-injection RNG and stochastic policies.
  std::uint64_t seed = 1;
  /// Upper bound on the QueueFull retry-after hint; 0 means no cap beyond
  /// the UINT32_MAX saturation of the wire field.
  std::uint32_t retry_after_cap_ms = 60000;
  /// Selection engine for optfb* policies. The serving hot path defaults
  /// to Incremental (per-decision cost stays ~flat as the history grows);
  /// shadow_diff and the sched_sim equivalence suites pin its decisions
  /// against the Reference engine.
  SelectEngine engine = SelectEngine::Incremental;
  /// Queue entries admitted per drain pass under one admission-lock hold
  /// (the paper's admission-queue scheduling section, batched): 1 replays
  /// the serial one-at-a-time server exactly; larger values amortize the
  /// lock and the selection re-score across up to this many grants with
  /// identical decisions.
  std::size_t admission_batch = 8;
  /// Debug/test builds: run the Reference engine in lock-step shadow next
  /// to the configured one and assert bit-identical decisions (requires a
  /// policy_factory that honors it, e.g. the serving tools' --shadow-diff
  /// wiring through testing::make_shadow_policy; a divergence throws out
  /// of acquire()).
  bool shadow_diff = false;
  /// Position of this server in its cluster (reported in HelloReply);
  /// 0 for a standalone fbcd.
  std::uint32_t shard_id = 0;
  /// Optional policy constructor override. When set, the server builds
  /// its replacement policy through this hook instead of make_policy --
  /// the seam the shadow_diff mode and the deterministic test harness use
  /// to inject instrumented policies without the service library
  /// depending on the testing library.
  std::function<PolicyPtr(const std::string&, const PolicyContext&)>
      policy_factory;
};

/// Thread-safe bundle-serving layer (see file comment).
class BundleServer : public ServingEndpoint {
 public:
  /// `mss` must outlive the server. Throws std::invalid_argument for a
  /// zero queue bound or an unknown policy name.
  BundleServer(const ServiceConfig& config, const StorageBackend& mss);
  ~BundleServer() override;

  BundleServer(const BundleServer&) = delete;
  BundleServer& operator=(const BundleServer&) = delete;

  /// Blocks until the bundle is resident and leased, the queue rejects it,
  /// or the timeout expires. Safe to call from any number of threads.
  [[nodiscard]] AcquireResult acquire(const Request& request) override;

  /// Releases a lease. Returns false for unknown ids. Wakes queued
  /// admissions that were waiting for pinned bytes to free up.
  bool release(LeaseId lease) override;

  /// Wakes every queued waiter with AcquireStatus::Closed and rejects
  /// future acquires. release()/metrics()/audit() keep working.
  void close() override;

  /// Test hook for the deterministic scheduling harness: while paused, no
  /// drain pass runs, so acquires enqueue (or reject on a full queue) but
  /// never admit. Unpausing wakes every waiter and drains normally. The
  /// hook makes queue composition -- and therefore the admission order,
  /// which is a pure function of queue content under mu_ -- independent
  /// of thread scheduling.
  void set_admission_paused(bool paused);

  [[nodiscard]] bool admission_paused() const;

  /// Full observability snapshot: a consistent ServiceStats block plus
  /// named counters and the per-stage latency/size histograms (the
  /// MsgType::MetricsReply body). Histogram counts tie to the stats once
  /// in-flight acquires have returned: every acquire.{queue,reserve,
  /// fetch,total}_us histogram
  /// then holds exactly `requests` observations and lease.hold_us holds
  /// `leases_released`. acquire.coalesce_us counts only grants that
  /// blocked on an overlapping transfer, and admit.batch_size counts
  /// drain passes that admitted at least one waiter.
  [[nodiscard]] MetricsSnapshot metrics() const override;

  /// A single shard: shard_id from the config, shard_count 1.
  [[nodiscard]] EndpointInfo info() const override {
    return {EndpointRole::Shard, config_.shard_id, 1};
  }

  /// Sorted snapshot of the resident file set. The deterministic
  /// scheduling harness (testing/sched_sim) compares this as the "final
  /// cache state" between batched and serial replays of one schedule.
  [[nodiscard]] std::vector<FileId> resident_files() const;

  /// Independently re-checks the serving invariants (capacity accounting,
  /// lease pinning, residency of leased bundles, counter consistency) and
  /// returns human-readable violations -- empty when healthy. The checks
  /// mirror testing::InvariantAuditor's classes.
  [[nodiscard]] std::vector<std::string> audit() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Waiter {
    enum class State {
      Queued,    ///< in queue_, not yet admitted
      Admitted,  ///< reserved + leased by a drain pass; owner runs the fetch
      Backoff,   ///< failed a transfer draw; sleeping before re-queueing
    };

    const Request* request = nullptr;
    Bytes bundle_bytes = 0;
    std::uint64_t admissions_at_enqueue = 0;
    State state = State::Queued;
    /// Outcome of admission, filled in by the draining thread (which may
    /// be a different thread than the waiter's own) under mu_.
    LeaseId lease = 0;
    bool request_hit = false;
    double stage_s = 0.0;
    /// Files this admission actually stages (missing at reserve time);
    /// the coalescer keys in-flight transfers on them.
    std::vector<FileId> fetched;
    std::uint32_t failed_attempts = 0;
    /// Stage boundary instants stamped by the draining thread so stage
    /// timings survive batched admission (the waiter may be asleep in
    /// cv_.wait while another thread admits it).
    std::chrono::steady_clock::time_point t_admit{};
    std::chrono::steady_clock::time_point t_reserved{};
  };

  /// Index into queue_ of the next request to admit under config_.order.
  // fbc:requires(mu_)
  [[nodiscard]] std::size_t choose_locked() const;

  /// True when `request` could be admitted right now: its missing bytes
  /// fit into free space plus what evicting every unpinned non-bundle
  /// resident file would release.
  // fbc:requires(mu_)
  [[nodiscard]] bool fits_locked(const Request& request) const;

  /// Admits up to config_.admission_batch queued waiters in the exact
  /// order the serial server would (choose_locked -> failure draw ->
  /// fits_locked -> admit), marking each Admitted and notifying. Stops
  /// early when the chosen head does not fit, is backing off, or fails
  /// its transfer draw (head-of-line semantics are part of the decision
  /// contract). Returns the number admitted.
  // fbc:requires(mu_)
  std::size_t drain_locked();

  /// Evicts victims, inserts missing files, grants the lease and records
  /// metrics. Returns the simulated staging seconds through `stage_s`.
  // fbc:requires(mu_)
  LeaseId admit_locked(const Request& request, Bytes bundle_bytes,
                       bool* request_hit, double* stage_s,
                       std::vector<FileId>* fetched);

  /// Counts a rejected acquire under obs_mu_ (the Ok-grant path folds its
  /// counter bump into the same obs_mu_ section as the duration
  /// histograms so a grant costs one lock).
  void count_outcome(std::string_view counter);

  ServiceConfig config_;
  const StorageBackend* mss_;
  TransferModel transfers_;

  // Admission lock (level 10 in the docs/SERVING.md lock hierarchy).
  // fbc:lock-level(10)
  // fbc:guards(cache_, policy_, metrics_, leases_, fail_rng_, queue_)
  // fbc:guards(admissions_)
  // fbc:guards(rejected_full_, timed_out_, invalid_, transfer_retries_)
  // fbc:guards(transfer_failures_, released_, closed_, paused_, grant_times_)
  mutable OrderedMutex mu_{10, "BundleServer::mu_"};
  std::condition_variable_any cv_;
  DiskCache cache_;
  PolicyPtr policy_;
  CacheMetrics metrics_;
  LeaseTable leases_;
  FetchCoalescer coalescer_;
  Rng fail_rng_;
  std::deque<Waiter*> queue_;
  std::uint64_t admissions_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::uint64_t transfer_failures_ = 0;
  std::uint64_t released_ = 0;
  bool closed_ = false;
  bool paused_ = false;  ///< test hook: freeze drain passes (see setter)
  /// Grant instant of each live lease, for the lease.hold_us histogram.
  /// Guarded by mu_; lookups only (fbclint L005: never iterated).
  std::unordered_map<LeaseId, std::chrono::steady_clock::time_point>
      grant_times_;

  /// Observability state. Guarded by obs_mu_, which is always acquired
  /// *after* mu_ (never the reverse -- level 40 vs 10) and held only for
  /// O(1) recording.
  // fbc:lock-level(40)
  // fbc:guards(counters_, hists_)
  // fbc:guards(acquire_ok_slot_, release_ok_slot_, release_unknown_slot_)
  // fbc:guards(transfers_slot_, coalesced_slot_)
  mutable OrderedMutex obs_mu_{40, "BundleServer::obs_mu_"};
  obs::CounterRegistry counters_;  ///< acquire.* / release.* outcomes
  /// The exported histograms: metrics() sends hists_[h] as kHistNames[h]
  /// (defined in server.cpp). The MetricsReply encoder needs the names
  /// strictly increasing, so the enumerators follow their names' order.
  enum Hist : std::size_t {
    kCoalesceUs,  ///< blocked on an overlapping transfer
    kFetchUs,     ///< reserve -> bundle resident
    kQueueDepth,  ///< waiters ahead at enqueue
    kQueueUs,     ///< enqueue -> admission decision
    kReserveUs,   ///< admission -> space reserved + leased
    kTotalUs,     ///< enqueue -> grant
    kBatchSize,   ///< admissions per non-empty drain pass
    kHoldUs,      ///< grant -> release
    kHistCount
  };
  static const std::array<std::string_view, kHistCount> kHistNames;
  std::array<obs::Histogram, kHistCount> hists_;
  /// Pre-resolved cells for the per-grant counters (CounterRegistry::slot
  /// pointers into counters_; map nodes are stable). Bumped under obs_mu_
  /// exactly like counters_.add(), minus the string lookup per request.
  std::uint64_t* acquire_ok_slot_;
  std::uint64_t* release_ok_slot_;
  std::uint64_t* release_unknown_slot_;
  std::uint64_t* transfers_slot_;
  std::uint64_t* coalesced_slot_;
};

}  // namespace fbc::service
