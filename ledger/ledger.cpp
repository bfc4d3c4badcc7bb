// Layer-ledger benchmark program.
//
// Runs one workload through one stack of the repository's layers for a
// fixed wall time and prints one JSON record on stdout: every metric by
// name with its unit, the correctness checks that failed, and the
// attempted/failed job counts. ledger/run.py builds this program and
// reshapes the record into the benchmark's result line; ledger/README.md
// defines every metric.
//
//   fbc_ledger --workload=henp-wire --seed=1 --seconds=10 --trace=0
//
// The benchmark stays outside the library: it calls public functions and
// wraps three public interfaces with the decorators in seams.hpp.
//
// Run shape: kSetups times, the workload is generated, a stack built and
// warmed with an untimed prefix, and that stack timed untraced for an
// equal share of --seconds; setup_s is the median set-up time, and every
// other end-to-end metric is taken over the pooled timed phases. With
// --trace=1 one more, traced, stack is set up the same way and timed for
// the full --seconds; per-layer numbers come from it, end-to-end numbers
// only from the untraced phases. Counters and histogram sums are deltas
// over a timed phase, taken with every client quiesced, so they tie out
// exactly against the load generator's own tallies.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/simulator.hpp"
#include "cluster/config.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "core/optgen.hpp"
#include "core/registry.hpp"
#include "grid/mss.hpp"
#include "seams.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workload/scenarios.hpp"
#include "workload/workload.hpp"

namespace {

using namespace fbc;
using ledger::Clock;
using ledger::ScopedSpan;
using ledger::SpanName;
using ledger::Tracer;

// ---------------------------------------------------------------------------
// Workloads

/// Seed of the scenario structure (catalog, request pool, popularity
/// ranks): fbcd/fbcload's default --wseed, so the catalogs are the ones
/// those tools serve by default. The benchmark seed draws the job order.
constexpr std::uint64_t kScenarioSeed = 42;
/// BundleDaemon handler threads: fbcd's default --workers.
constexpr std::size_t kDaemonWorkers = 8;
/// Raw spans kept per thread in a traced run.
constexpr std::size_t kSpansKeptPerThread = 20000;
/// Watchdog: a load phase with no completed call for this long is wedged.
constexpr double kStallSeconds = 20.0;
/// Watchdog: the whole run must end within this (run.py kills the
/// program at 175 s).
constexpr double kRunDeadlineSeconds = 170.0;
/// Stacks set up, warmed and timed per untraced run; setup_s is the
/// median of their set-up times.
constexpr std::size_t kSetups = 3;

enum class StackKind { Wire, Cluster };

struct WorkloadDef {
  const char* name;
  StackKind kind;
  Bytes server_cache;       ///< per server (per shard on the cluster)
  std::uint32_t shards;     ///< servers behind the endpoint
  std::size_t clients;      ///< load-generator threads (wire connections)
  std::size_t warmup_jobs;  ///< untimed prefix that fills the cache
  std::size_t stream_jobs;  ///< generated stream length, warm-up included
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"henp-wire", StackKind::Wire, 2 * GiB, 1, 4, 20000, 120000},
    {"zipf-cluster", StackKind::Cluster, 1 * GiB, 4, 4, 50000, 250000},
};

/// Generates the scenario and draws the job order from `seed`: the job
/// multiset (hence each bundle's popularity) is the scenario's own, the
/// order in which the stack sees the jobs is the seed's.
Workload generate(const WorkloadDef& def, std::uint64_t seed) {
  Workload w;
  switch (def.kind) {
    case StackKind::Wire: {
      HenpConfig c;
      c.seed = kScenarioSeed;
      c.cache_bytes = def.server_cache;
      c.num_jobs = def.stream_jobs;
      w = generate_henp_workload(c);
      break;
    }
    case StackKind::Cluster: {
      // bench_cluster's workload: ~6x the aggregate cache in distinct
      // bytes keeps eviction (the CPU-heavy part of admission) hot.
      WorkloadConfig c;
      c.seed = kScenarioSeed;
      c.cache_bytes = def.server_cache * def.shards;
      c.num_files = 600;
      c.min_file_bytes = c.cache_bytes / 100;
      c.max_file_frac = 0.02;
      c.num_requests = 400;
      c.min_bundle_files = 1;
      c.max_bundle_files = 4;
      c.num_jobs = def.stream_jobs;
      c.popularity = Popularity::Zipf;
      c.zipf_alpha = 0.8;
      w = generate_workload(c);
      break;
    }
  }
  Rng order(seed);
  order.shuffle(std::span<std::size_t>(w.job_index));
  for (std::size_t i = 0; i < w.jobs.size(); ++i)
    w.jobs[i] = w.pool[w.job_index[i]];
  return w;
}

/// fbcload's default --tier-mix=0.5,0.33 placement for --wseed=42: half
/// the files on tape, a third on the remote MSS, the rest on the disk pool.
void place_tiers(MassStorageSystem& mss) {
  Rng rng(kScenarioSeed + 17);
  for (FileId id = 0; id < mss.catalog().count(); ++id) {
    const double roll = rng.uniform_double();
    if (roll < 0.5) {
      mss.place_file(id, 1);
    } else if (roll < 0.83) {
      mss.place_file(id, 2);
    }
  }
}

// ---------------------------------------------------------------------------
// Stack

/// One stack of layers. Members are declared in construction order, so
/// destruction tears down clients, daemon and router before the servers
/// and the MSS they reference.
struct Stack {
  std::unique_ptr<MassStorageSystem> mss;
  std::unique_ptr<ledger::CountingBackend> backend;
  std::vector<std::unique_ptr<service::BundleServer>> servers;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> shard_calls;
  std::unique_ptr<cluster::ClusterRouter> router;
  /// The router or the single server: what stats and metrics come from.
  service::ServingEndpoint* core = nullptr;
  std::unique_ptr<ledger::EndpointSeam> seam;
  /// What the load generator (or the daemon) calls: the seam or `core`.
  service::ServingEndpoint* endpoint = nullptr;
  std::unique_ptr<service::BundleDaemon> daemon;
  std::vector<std::unique_ptr<service::BundleClient>> clients;
};

std::unique_ptr<Stack> build_stack(const WorkloadDef& def, const Workload& w,
                                   std::uint64_t seed, Tracer* tracer) {
  auto st = std::make_unique<Stack>();
  st->mss = std::make_unique<MassStorageSystem>(default_tiers(), w.catalog);
  place_tiers(*st->mss);
  st->backend = std::make_unique<ledger::CountingBackend>(*st->mss);

  service::ServiceConfig config;  // fbcd defaults otherwise
  config.cache_bytes = def.server_cache;
  config.policy = "optfb";
  config.time_scale = 0.0;  // staging is counted, not slept
  config.seed = seed;
  for (std::uint32_t s = 0; s < def.shards; ++s) {
    config.shard_id = s;
    st->servers.push_back(
        std::make_unique<service::BundleServer>(config, *st->backend));
  }

  if (def.kind == StackKind::Cluster) {
    std::vector<std::unique_ptr<cluster::Shard>> shards;
    for (auto& server : st->servers) {
      std::unique_ptr<cluster::Shard> shard =
          std::make_unique<cluster::LocalShard>(*server);
      if (tracer != nullptr) {
        st->shard_calls.push_back(
            std::make_unique<std::atomic<std::uint64_t>>(0));
        shard = std::make_unique<ledger::ShardSeam>(
            std::move(shard), *tracer, *st->shard_calls.back());
      }
      shards.push_back(std::move(shard));
    }
    cluster::ClusterConfig cc;  // affinity placement, fbcgrid defaults
    cc.shards = def.shards;
    st->router = std::make_unique<cluster::ClusterRouter>(
        cc, w.catalog, def.server_cache, std::move(shards));
    st->core = st->router.get();
  } else {
    st->core = st->servers.front().get();
  }

  st->endpoint = st->core;
  if (tracer != nullptr) {
    st->seam = std::make_unique<ledger::EndpointSeam>(*st->core, *tracer);
    st->endpoint = st->seam.get();
  }
  if (def.kind == StackKind::Wire) {
    st->daemon = std::make_unique<service::BundleDaemon>(*st->endpoint, 0,
                                                         kDaemonWorkers);
    for (std::size_t c = 0; c < def.clients; ++c)
      st->clients.push_back(
          std::make_unique<service::BundleClient>(st->daemon->port()));
  }
  return st;
}

// ---------------------------------------------------------------------------
// Watchdog

/// Fails the run with a named error instead of letting a wedged stack
/// hang: a load phase whose clients complete no call for kStallSeconds,
/// or a run longer than kRunDeadlineSeconds, exits with status 3.
class Watchdog {
 public:
  explicit Watchdog(std::string workload)
      : workload_(std::move(workload)),
        start_(Clock::now()),
        thread_([this] { loop(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Names the current load phase (nullptr: not a load phase).
  void arm(const char* phase) noexcept {
    phase_.store(phase, std::memory_order_relaxed);
  }

  void tick() noexcept { progress_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void loop() {
    std::uint64_t last = progress_.load(std::memory_order_relaxed);
    auto last_change = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(200),
                         [this] { return stop_; })) {
      const auto now = Clock::now();
      const std::uint64_t p = progress_.load(std::memory_order_relaxed);
      const char* phase = phase_.load(std::memory_order_relaxed);
      if (p != last || phase == nullptr) {
        last = p;
        last_change = now;
      }
      const double stalled =
          std::chrono::duration<double>(now - last_change).count();
      const double total = std::chrono::duration<double>(now - start_).count();
      if (phase != nullptr && stalled >= kStallSeconds) {
        std::fprintf(stderr,
                     "ledger: watchdog: %s: no call completed for %.0f s in "
                     "phase '%s' (wedged stack)\n",
                     workload_.c_str(), stalled, phase);
        std::fflush(stderr);
        std::_Exit(3);
      }
      if (total >= kRunDeadlineSeconds) {
        std::fprintf(stderr,
                     "ledger: watchdog: %s: run exceeded %.0f s (phase "
                     "'%s')\n",
                     workload_.c_str(), kRunDeadlineSeconds,
                     phase != nullptr ? phase : "-");
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }

  std::string workload_;
  Clock::time_point start_;
  std::atomic<const char*> phase_{nullptr};
  std::atomic<std::uint64_t> progress_{0};
  std::mutex mu_;  // guards stop_
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

// ---------------------------------------------------------------------------
// Load generation

/// Tallies of one load-generator thread.
struct Tally {
  std::uint64_t attempted = 0;  ///< jobs whose acquire was sent
  std::uint64_t granted = 0;    ///< acquires that returned Ok
  std::uint64_t completed = 0;  ///< granted and released
  std::uint64_t failed = 0;     ///< acquire refused/failed or release false
  std::uint64_t hits = 0;       ///< completed jobs whose bundle was resident
  Bytes requested = 0;          ///< bundle bytes of completed jobs
  double latency_sum_us = 0.0;
  /// Per completed job. A histogram, not samples, so the benchmark's own
  /// memory does not grow with the job count and blur peak_rss_mib.
  ledger::FineHistogram latency;

  void merge(const Tally& o) {
    attempted += o.attempted;
    granted += o.granted;
    completed += o.completed;
    failed += o.failed;
    hits += o.hits;
    requested += o.requested;
    latency_sum_us += o.latency_sum_us;
    latency.merge(o.latency);
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Host CPU time stolen from this VM (the "steal" column of /proc/stat)
/// and total CPU time, in clock ticks; zeros where unavailable. Reported
/// beside the timing metrics so a run disturbed by a neighbour shows.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostCpu out;
  if (label != "cpu") return out;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) return HostCpu{};
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

struct PhaseResult {
  Tally tally;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ledger::StagingTotals staged;  ///< seen at the StorageBackend seam
  HostCpu host;                  ///< host CPU ticks over the phase
};

/// Pools the timed phases of several stacks: every total adds up, and the
/// latency histograms merge, so percentiles are over every job of a run.
PhaseResult pool(const std::vector<PhaseResult>& parts) {
  PhaseResult out;
  for (const PhaseResult& p : parts) {
    out.tally.merge(p.tally);
    out.wall_s += p.wall_s;
    out.cpu_s += p.cpu_s;
    out.staged.files += p.staged.files;
    out.staged.bytes += p.staged.bytes;
    out.staged.fetch_s += p.staged.fetch_s;
    out.host.steal += p.host.steal;
    out.host.total += p.host.total;
  }
  return out;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double us_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// One load phase: which jobs, how many, until when.
class Phase {
 public:
  Phase(const Workload& w, std::size_t first_job, std::size_t max_jobs,
        Clock::time_point deadline, Tracer* tracer, Watchdog* watchdog)
      : w_(&w),
        first_(first_job),
        max_jobs_(max_jobs),
        deadline_(deadline),
        tracer_(tracer),
        watchdog_(watchdog) {}

  /// Claims the next job (phase-relative index), or nullopt once max_jobs
  /// are claimed or the deadline has passed. A claimed job is always run
  /// to completion.
  std::optional<std::size_t> claim() {
    const std::size_t k = next_.fetch_add(1, std::memory_order_relaxed);
    if (k >= max_jobs_ || Clock::now() >= deadline_) return std::nullopt;
    return k;
  }

  [[nodiscard]] const Request& job(std::size_t k) const {
    return w_->jobs[(first_ + k) % w_->jobs.size()];
  }
  /// Span request id of job k (never 0).
  [[nodiscard]] std::uint64_t request_id(std::size_t k) const {
    return first_ + k + 1;
  }

  /// Records a completed job that was leased `latency_us` after its send.
  void complete(Tally& t, std::size_t k, bool hit, double latency_us) const {
    ++t.completed;
    if (hit) ++t.hits;
    t.requested += w_->catalog.request_bytes(job(k));
    t.latency_sum_us += latency_us;
    t.latency.record(static_cast<std::uint64_t>(latency_us * 1000.0));
    tick();
  }

  void tick() const {
    if (watchdog_ != nullptr) watchdog_->tick();
  }

  Tracer* tracer() const { return tracer_; }

 private:
  const Workload* w_;
  std::size_t first_;
  std::size_t max_jobs_;
  Clock::time_point deadline_;
  Tracer* tracer_;
  Watchdog* watchdog_;
  std::atomic<std::size_t> next_{0};
};

/// QueueFull is backpressure, not failure: retry on the server's hint
/// (capped at 10 ms a try) for up to 30 s in total. No workload here can
/// fill a queue (4 clients, 64 slots per server), so this never loops.
template <typename Retry>
service::AcquireResult retry_queue_full(service::AcquireResult r,
                                        Retry&& again) {
  double slept_ms = 0.0;
  while (r.status == service::AcquireStatus::QueueFull && slept_ms < 30000.0) {
    const double ms = std::clamp<double>(r.retry_after_ms, 1.0, 10.0);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    slept_ms += ms;
    r = again();
  }
  return r;
}

/// In-process client, closed loop: acquire, then release at once.
void run_inprocess(service::ServingEndpoint& ep, Phase& phase, Tally& t) {
  Tracer* tracer = phase.tracer();
  while (const auto k = phase.claim()) {
    const Request& job = phase.job(*k);
    const auto sent = Clock::now();
    ++t.attempted;
    const auto acquire = [&] {
      const ScopedSpan span(tracer, SpanName::LoadAcquire,
                            phase.request_id(*k));
      return ep.acquire(job);
    };
    const service::AcquireResult r = retry_queue_full(acquire(), acquire);
    const auto leased = Clock::now();
    if (r.status != service::AcquireStatus::Ok) {
      ++t.failed;
      phase.tick();
      continue;
    }
    ++t.granted;
    bool released = false;
    {
      const ScopedSpan span(tracer, SpanName::LoadRelease,
                            phase.request_id(*k));
      released = ep.release(r.lease);
    }
    if (!released) {
      ++t.failed;
      phase.tick();
      continue;
    }
    phase.complete(t, *k, r.request_hit, us_since(sent, leased));
  }
}

/// Wire client, closed loop: job i's release and job i+1's acquire share
/// one round trip (BundleClient::release_acquire), as fbcload does by
/// default. A job's latency is the call that carried its acquire.
void run_wire(service::BundleClient& client, Phase& phase, Tally& t) {
  Tracer* tracer = phase.tracer();
  const auto acquire = [&](std::size_t job) {
    const ScopedSpan span(tracer, SpanName::LoadAcquire,
                          phase.request_id(job));
    return client.acquire(phase.job(job).files);
  };
  std::optional<std::size_t> k = phase.claim();
  service::AcquireResult r;  // outcome of job k's acquire
  bool acquired = false;     // ... when a pipelined call already carried it
  Clock::time_point sent;
  Clock::time_point leased;
  while (k) {
    if (!acquired) {
      ++t.attempted;
      sent = Clock::now();
      const std::size_t job = *k;
      r = retry_queue_full(acquire(job), [&] { return acquire(job); });
      leased = Clock::now();
    }
    acquired = false;
    if (r.status != service::AcquireStatus::Ok) {
      ++t.failed;
      phase.tick();
      k = phase.claim();
      continue;
    }
    ++t.granted;
    const bool hit = r.request_hit;
    const double latency = us_since(sent, leased);
    const std::optional<std::size_t> next = phase.claim();
    bool released = false;
    if (next) {
      ++t.attempted;
      sent = Clock::now();
      service::AcquireResult r2;
      {
        const ScopedSpan span(tracer, SpanName::LoadReleaseAcquire,
                              phase.request_id(*next));
        r2 = client.release_acquire(r.lease, phase.job(*next).files,
                                    &released);
      }
      const std::size_t job = *next;
      r = retry_queue_full(r2, [&] { return acquire(job); });
      leased = Clock::now();
      acquired = true;
    } else {
      const ScopedSpan span(tracer, SpanName::LoadRelease,
                            phase.request_id(*k));
      released = client.release(r.lease);
    }
    if (released) {
      phase.complete(t, *k, hit, latency);
    } else {
      ++t.failed;
      phase.tick();
    }
    k = next;
  }
}

/// Runs one load phase on every client thread and joins them.
PhaseResult run_phase(const WorkloadDef& def, Stack& st, Phase& phase) {
  std::vector<Tally> tallies(def.clients);
  PhaseResult out;
  const HostCpu host0 = host_cpu();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < def.clients; ++c) {
      threads.emplace_back([&, c] {
        if (def.kind == StackKind::Wire) {
          run_wire(*st.clients[c], phase, tallies[c]);
        } else {
          run_inprocess(*st.endpoint, phase, tallies[c]);
        }
      });
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.cpu_s = cpu_seconds() - cpu0;
  const HostCpu host1 = host_cpu();
  out.host = {host1.steal - host0.steal, host1.total - host0.total};
  for (const Tally& t : tallies) out.tally.merge(t);
  return out;
}

// ---------------------------------------------------------------------------
// Snapshots, deltas and checks

struct Snapshot {
  service::MetricsSnapshot metrics;
  std::vector<service::ServiceStats> server_stats;
  ledger::StagingTotals staging;
  std::vector<std::uint64_t> shard_calls;
};

Snapshot snapshot(const Stack& st) {
  Snapshot s;
  s.metrics = st.core->metrics();
  for (const auto& server : st.servers)
    s.server_stats.push_back(server->stats());
  s.staging = st.backend->totals();
  for (const auto& c : st.shard_calls)
    s.shard_calls.push_back(c->load(std::memory_order_relaxed));
  return s;
}

std::uint64_t counter_of(const service::MetricsSnapshot& m,
                         const std::string& name) {
  for (const auto& [counter, value] : m.counters)
    if (counter == name) return value;
  return 0;
}

struct HistDelta {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

HistDelta hist_delta(const Snapshot& a, const Snapshot& b,
                     const std::string& name) {
  HistDelta d;
  const obs::Histogram* ha = nullptr;
  const obs::Histogram* hb = nullptr;
  for (const auto& named : a.metrics.histograms)
    if (named.name == name) ha = &named.hist;
  for (const auto& named : b.metrics.histograms)
    if (named.name == name) hb = &named.hist;
  if (hb == nullptr) return d;
  d.count = hb->count() - (ha != nullptr ? ha->count() : 0);
  d.sum = hb->sum() - (ha != nullptr ? ha->sum() : 0);
  return d;
}

std::uint64_t counter_delta(const Snapshot& a, const Snapshot& b,
                            const std::string& name) {
  return counter_of(b.metrics, name) - counter_of(a.metrics, name);
}

/// fbcload's check_stats tie-outs, plus "every lease released" once the
/// clients have quiesced.
void check_stats(const service::ServiceStats& s, const std::string& who,
                 std::vector<std::string>& failures) {
  const auto fail = [&](const std::string& what) {
    failures.push_back(who + ": " + what);
  };
  if (s.used_bytes > s.capacity_bytes) fail("used_bytes exceeds capacity");
  if (s.request_hits > s.requests) fail("request_hits exceeds requests");
  if (s.bytes_missed > s.bytes_requested)
    fail("bytes_missed exceeds bytes_requested");
  if (s.leases_released > s.leases_granted)
    fail("released more leases than granted");
  if (s.active_leases != s.leases_granted - s.leases_released)
    fail("active_leases inconsistent");
  if (s.leases_granted != s.requests)
    fail("leases_granted != requests admitted");
  if (s.leases_granted != s.leases_released)
    fail("leases granted " + std::to_string(s.leases_granted) +
         " != released " + std::to_string(s.leases_released));
}

/// Every output check of one quiesced phase. Failures name the phase.
void check_phase(const Stack& st, const Snapshot& a, const Snapshot& b,
                 const PhaseResult& r, const std::string& phase,
                 std::vector<std::string>& failures) {
  const auto fail = [&](const std::string& what) {
    failures.push_back(phase + ": " + what);
  };
  // The parent fails no job on either workload, so any failed job is a
  // defect, not noise.
  if (r.tally.failed != 0)
    fail(std::to_string(r.tally.failed) + " of " +
         std::to_string(r.tally.attempted) + " jobs failed");
  for (std::size_t s = 0; s < st.servers.size(); ++s) {
    const std::string who = "server " + std::to_string(s);
    for (const std::string& v : st.servers[s]->audit())
      fail(who + " audit: " + v);
    check_stats(b.server_stats[s], phase + ": " + who, failures);
  }
  if (st.router) {
    if (st.router->scatter_leases() != 0)
      fail("scatter_leases() = " + std::to_string(st.router->scatter_leases()));
    if (st.router->pending_releases() != 0)
      fail("deferred releases outstanding");
    if (st.router->down_count() != 0) fail("a shard is marked down");
  }
  if (st.daemon && st.daemon->leases_reclaimed() != 0)
    fail("daemon reclaimed leases of dead connections");

  const service::ServiceStats& sa = a.metrics.stats;
  const service::ServiceStats& sb = b.metrics.stats;
  const std::uint64_t requests = sb.requests - sa.requests;
  const std::uint64_t hits = sb.request_hits - sa.request_hits;
  const std::uint64_t missed = sb.bytes_missed - sa.bytes_missed;
  const std::uint64_t staged = b.staging.bytes - a.staging.bytes;
  if (staged != missed)
    fail("bytes staged at the StorageBackend seam " + std::to_string(staged) +
         " != stats bytes_missed delta " + std::to_string(missed));
  if (counter_delta(a, b, "acquire.ok") != requests)
    fail("counter acquire.ok delta != requests delta");
  if (counter_delta(a, b, "fetch.transfers") != requests - hits)
    fail("counter fetch.transfers delta != misses delta");
  if (hist_delta(a, b, "acquire.total_us").count != requests)
    fail("acquire.total_us count delta != requests delta");
  if (hist_delta(a, b, "admit.batch_size").sum != requests)
    fail("admit.batch_size sum delta != requests delta");
  if (hist_delta(a, b, "lease.hold_us").count !=
      sb.leases_released - sa.leases_released)
    fail("lease.hold_us count delta != leases released delta");
  // Scattered acquires count once per touched shard in the summed stats;
  // without scatter the server view must equal the client view exactly.
  if (counter_delta(a, b, "grid.acquire.scatter") == 0) {
    if (requests != r.tally.granted)
      fail("requests delta " + std::to_string(requests) +
           " != acquires granted " + std::to_string(r.tally.granted));
    if (hits != r.tally.hits)
      fail("request_hits delta != client-observed hits");
    if (sb.bytes_requested - sa.bytes_requested != r.tally.requested)
      fail("bytes_requested delta != client-side bundle bytes");
  }
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// End-to-end metrics of the pooled untraced timed phases: every rate,
/// percentile and share is over every job of the run.
void end_to_end(const PhaseResult& r, double setup_s, Metrics& m) {
  const Tally& t = r.tally;
  const auto jobs = static_cast<double>(t.completed);
  const auto staged = static_cast<double>(r.staged.bytes);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["jobs_per_s"] = {ratio(jobs, r.wall_s), "jobs/s"};
  m["job_latency_p50_ms"] = {t.latency.quantile_us(0.50) / 1000.0, "ms"};
  m["job_latency_p99_ms"] = {t.latency.quantile_us(0.99) / 1000.0, "ms"};
  m["cpu_us_per_job"] = {ratio(r.cpu_s * 1e6, jobs), "us"};
  m["request_hit_pct"] = {100.0 * ratio(static_cast<double>(t.hits), jobs),
                          "%"};
  m["byte_miss_pct"] = {
      100.0 * ratio(staged, static_cast<double>(t.requested)), "%"};
  m["staged_mib_per_job"] = {ratio(staged, jobs) / static_cast<double>(MiB),
                             "MiB"};
  m["mss_s_per_job"] = {ratio(r.staged.fetch_s, jobs), "s"};
  const double failed_pct =
      100.0 * ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted));
  m["failed_pct"] = {failed_pct, "%"};
  m["ok_pct"] = {100.0 - failed_pct, "%"};
  m["peak_rss_mib"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"};
  m["setup_s"] = {setup_s, "s"};
  m["loadgen.jobs"] = {jobs, "count"};
  m["host.cpu_steal_pct"] = {
      100.0 * ratio(static_cast<double>(r.host.steal),
                    static_cast<double>(r.host.total)),
      "%"};
}

/// Serial reference on the same job stream: simulate() and BundleOPTgen
/// at the stack's aggregate capacity, measured after the same warm-up.
struct Reference {
  double sim_us_per_job = 0.0;
  double sim_hit_pct = 0.0;
  double sim_byte_miss_pct = 0.0;
  double rescored_per_decision = 0.0;
  double scanned_per_decision = 0.0;
  double optgen_reuse_pct = 0.0;
  double optgen_opt_pct = 0.0;
};

Reference serial_reference(const WorkloadDef& def, const Workload& w) {
  Reference ref;
  const Bytes capacity = def.server_cache * def.shards;
  PolicyContext ctx;
  ctx.catalog = &w.catalog;
  ctx.select_engine = SelectEngine::Incremental;  // the serving default
  PolicyPtr policy = make_policy("optfb", ctx);
  SimulatorConfig sc;
  sc.cache_bytes = capacity;
  sc.warmup_jobs = def.warmup_jobs;
  const auto t0 = Clock::now();
  const SimulationResult res = simulate(sc, w.catalog, *policy, w.jobs);
  const double us = us_since(t0, Clock::now());
  const CacheMetrics& cm = res.metrics;
  ref.sim_us_per_job = ratio(us, static_cast<double>(w.jobs.size()));
  ref.sim_hit_pct = 100.0 * cm.request_hit_ratio();
  ref.sim_byte_miss_pct = 100.0 * cm.byte_miss_ratio();
  const SelectionCost& cost = cm.selection_cost();
  ref.rescored_per_decision = ratio(static_cast<double>(cost.entries_rescored),
                                    static_cast<double>(cost.decisions));
  ref.scanned_per_decision = ratio(
      static_cast<double>(cost.candidates_scanned),
      static_cast<double>(cost.decisions));

  OptgenConfig oc;
  oc.capacity = capacity;
  BundleOPTgen oracle(w.catalog, oc);
  std::uint64_t reuse = 0;
  std::uint64_t opt = 0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const OptgenVerdict v = oracle.observe(w.jobs[i]);
    if (i < def.warmup_jobs) continue;
    if (v.reuse_feasible) ++reuse;
    if (v.opt_hit) ++opt;
  }
  const auto measured = static_cast<double>(w.jobs.size() - def.warmup_jobs);
  ref.optgen_reuse_pct = 100.0 * ratio(static_cast<double>(reuse), measured);
  ref.optgen_opt_pct = 100.0 * ratio(static_cast<double>(opt), measured);
  return ref;
}

/// Per-layer metrics of a traced timed phase (see README.md).
void per_layer(const WorkloadDef& def, const PhaseResult& untraced,
               const PhaseResult& traced, const Snapshot& a,
               const Snapshot& b, const ledger::SpanTotals& spans,
               const Reference& ref, double gen_s, Metrics& m) {
  const Tally& t = traced.tally;
  const auto jobs = static_cast<double>(t.completed);
  const auto kjobs = jobs / 1000.0;
  const double hit_pct =
      100.0 * ratio(static_cast<double>(untraced.tally.hits),
                    static_cast<double>(untraced.tally.completed));
  const service::ServiceStats& sa = a.metrics.stats;
  const service::ServiceStats& sb = b.metrics.stats;
  const bool cluster = def.kind == StackKind::Cluster;

  m["workload.gen_s"] = {gen_s, "s"};
  m["cache.sim_us_per_job"] = {ref.sim_us_per_job, "us"};
  m["cache.sim_request_hit_pct"] = {ref.sim_hit_pct, "%"};
  m["cache.sim_byte_miss_pct"] = {ref.sim_byte_miss_pct, "%"};
  m["core.rescored_per_decision"] = {ref.rescored_per_decision, "count"};
  m["core.scanned_per_decision"] = {ref.scanned_per_decision, "count"};
  m["core.optgen_reuse_bound_pct"] = {ref.optgen_reuse_pct, "%"};
  m["core.optgen_opt_bound_pct"] = {ref.optgen_opt_pct, "%"};

  // The server seam: the ServingEndpoint over one BundleServer, or the
  // Shard seams over the cluster's BundleServers.
  const SpanName srv_acq =
      cluster ? SpanName::ShardAcquire : SpanName::EndpointAcquire;
  const SpanName srv_rel =
      cluster ? SpanName::ShardRelease : SpanName::EndpointRelease;
  m["server.acquire_us_p50"] = {spans.histogram(srv_acq).quantile_us(0.50),
                                "us"};
  m["server.acquire_us_p99"] = {spans.histogram(srv_acq).quantile_us(0.99),
                                "us"};
  m["server.release_us_p50"] = {spans.histogram(srv_rel).quantile_us(0.50),
                                "us"};
  m["server.queue_us_mean"] = {hist_delta(a, b, "acquire.queue_us").mean(),
                               "us"};
  m["server.reserve_us_mean"] = {hist_delta(a, b, "acquire.reserve_us").mean(),
                                 "us"};
  m["server.fetch_us_mean"] = {hist_delta(a, b, "acquire.fetch_us").mean(),
                               "us"};
  m["server.coalesce_per_kjob"] = {
      ratio(static_cast<double>(counter_delta(a, b, "acquire.coalesced")),
            kjobs),
      "count"};
  m["server.admit_batch_mean"] = {hist_delta(a, b, "admit.batch_size").mean(),
                                  "count"};
  m["server.evictions_per_job"] = {
      ratio(static_cast<double>(sb.evictions - sa.evictions), jobs), "count"};
  m["server.queue_full_per_kjob"] = {
      ratio(static_cast<double>(sb.rejected_full - sa.rejected_full), kjobs),
      "count"};
  m["server.hit_gap_vs_sim_pts"] = {ref.sim_hit_pct - hit_pct, "points"};
  m["server.hit_gap_vs_optgen_pts"] = {ref.optgen_opt_pct - hit_pct,
                                       "points"};

  // Transport: the load generator's call minus the endpoint-seam calls
  // it carried. Across the wire the seam spans run on daemon threads, so
  // this is exact in sum (every client call maps to the seam calls it
  // carried), not per call. In process it is the call overhead alone.
  const double client_sum = spans.sum(SpanName::LoadAcquire) +
                            spans.sum(SpanName::LoadRelease) +
                            spans.sum(SpanName::LoadReleaseAcquire);
  const auto client_calls =
      static_cast<double>(spans.calls(SpanName::LoadAcquire) +
                          spans.calls(SpanName::LoadRelease) +
                          spans.calls(SpanName::LoadReleaseAcquire));
  const double endpoint_sum = spans.sum(SpanName::EndpointAcquire) +
                              spans.sum(SpanName::EndpointRelease);
  const double shard_sum =
      spans.sum(SpanName::ShardAcquire) + spans.sum(SpanName::ShardRelease);
  ledger::FineHistogram rtt = spans.histogram(SpanName::LoadAcquire);
  rtt.merge(spans.histogram(SpanName::LoadReleaseAcquire));
  m["transport.acquire_rtt_us_p50"] = {rtt.quantile_us(0.50), "us"};
  m["transport.acquire_rtt_us_p99"] = {rtt.quantile_us(0.99), "us"};
  m["transport.self_us_mean"] = {ratio(client_sum - endpoint_sum, client_calls),
                                 "us"};
  m["transport.self_share_pct"] = {
      100.0 * ratio(client_sum - endpoint_sum, client_sum), "%"};

  // Cluster: router self = endpoint-seam time minus the Shard-seam calls
  // it made. Stacks without a router report 0 for every cluster metric.
  const auto acquires =
      static_cast<double>(spans.calls(SpanName::EndpointAcquire));
  const std::uint64_t single = counter_delta(a, b, "grid.acquire.single");
  const std::uint64_t scatter = counter_delta(a, b, "grid.acquire.scatter");
  double imbalance = 0.0;
  if (cluster && !b.shard_calls.empty()) {
    double max_calls = 0.0;
    double sum_calls = 0.0;
    for (std::size_t s = 0; s < b.shard_calls.size(); ++s) {
      const auto calls =
          static_cast<double>(b.shard_calls[s] - a.shard_calls[s]);
      max_calls = std::max(max_calls, calls);
      sum_calls += calls;
    }
    imbalance = ratio(max_calls,
                      sum_calls / static_cast<double>(b.shard_calls.size()));
  }
  m["cluster.router_self_us_mean"] = {
      cluster ? ratio(endpoint_sum - shard_sum, acquires) : 0.0, "us"};
  m["cluster.router_self_share_pct"] = {
      cluster ? 100.0 * ratio(endpoint_sum - shard_sum, endpoint_sum) : 0.0,
      "%"};
  m["cluster.shard_calls_per_acquire"] = {
      cluster ? ratio(static_cast<double>(spans.calls(SpanName::ShardAcquire)),
                      acquires)
              : 0.0,
      "count"};
  m["cluster.scatter_pct"] = {
      100.0 * ratio(static_cast<double>(scatter),
                    static_cast<double>(single + scatter)),
      "%"};
  m["cluster.rollback_per_kjob"] = {
      ratio(static_cast<double>(counter_delta(a, b, "grid.acquire.rollback")),
            kjobs),
      "count"};
  m["cluster.shard_imbalance"] = {imbalance, "ratio"};

  const auto files = static_cast<double>(traced.staged.files);
  const auto fetch_us = static_cast<double>(
      hist_delta(a, b, "acquire.fetch_us").sum);
  m["grid.files_staged_per_job"] = {ratio(files, jobs), "count"};
  m["grid.fetch_s_per_file"] = {ratio(traced.staged.fetch_s, files), "s"};
  m["grid.stage_wall_share_pct"] = {
      100.0 * ratio(fetch_us, t.latency_sum_us), "%"};

  m["loadgen.jobs"] = {static_cast<double>(untraced.tally.completed), "count"};
  const double jps_untraced = ratio(
      static_cast<double>(untraced.tally.completed), untraced.wall_s);
  const double jps_traced = ratio(jobs, traced.wall_s);
  m["trace.overhead_pct"] = {
      100.0 * ratio(jps_untraced - jps_traced, jps_untraced), "%"};
}

/// Where the time goes, from the traced phase: mean microseconds per job
/// in each layer's own code (the layer table of README.md).
void print_layer_table(const WorkloadDef& def, const PhaseResult& traced,
                       const Snapshot& a, const Snapshot& b,
                       const ledger::SpanTotals& spans) {
  const double jobs = static_cast<double>(traced.tally.completed);
  const double client = spans.sum(SpanName::LoadAcquire) +
                        spans.sum(SpanName::LoadRelease) +
                        spans.sum(SpanName::LoadReleaseAcquire);
  const double endpoint = spans.sum(SpanName::EndpointAcquire) +
                          spans.sum(SpanName::EndpointRelease);
  const double shard =
      spans.sum(SpanName::ShardAcquire) + spans.sum(SpanName::ShardRelease);
  const double server = def.kind == StackKind::Cluster ? shard : endpoint;
  const HistDelta queue = hist_delta(a, b, "acquire.queue_us");
  const HistDelta reserve = hist_delta(a, b, "acquire.reserve_us");
  const HistDelta fetch = hist_delta(a, b, "acquire.fetch_us");
  const HistDelta coalesce = hist_delta(a, b, "acquire.coalesce_us");
  const auto row = [&](const char* layer, double us_total) {
    std::fprintf(stderr, "  %-34s %10.3f us/job %6.1f%%\n", layer,
                 ratio(us_total, jobs), 100.0 * ratio(us_total, client));
  };
  std::fprintf(stderr, "ledger: %s where the time goes (traced, %.0f jobs, "
               "share of client call time):\n", def.name, jobs);
  row("client calls (loadgen.*)", client);
  row("  transport self (client - endpoint)", client - endpoint);
  if (def.kind == StackKind::Cluster)
    row("  router self (endpoint - shard)", endpoint - shard);
  row("  server calls (BundleServer seam)", server);
  row("    queue (acquire.queue_us)", static_cast<double>(queue.sum));
  row("    reserve (acquire.reserve_us)", static_cast<double>(reserve.sum));
  row("    fetch (acquire.fetch_us)", static_cast<double>(fetch.sum));
  row("    coalesce wait (acquire.coalesce_us)",
      static_cast<double>(coalesce.sum));
  row("    other (release, grant, locks)",
      server - static_cast<double>(queue.sum + reserve.sum + fetch.sum +
                                   coalesce.sum));
}

// ---------------------------------------------------------------------------
// Entry point

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + arg);
    }
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--spans-dir") {
      o.spans_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads)
    if (name == def.name) return def;
  throw std::invalid_argument("unknown --workload " + name);
}

/// A warmed stack plus what building it cost.
struct Prepared {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Stack> stack;
  double gen_s = 0.0;
  double setup_s = 0.0;
};

Prepared prepare(const WorkloadDef& def, const Options& o, Tracer* tracer,
                 Watchdog& dog, std::vector<std::string>& failures) {
  Prepared p;
  const auto t0 = Clock::now();
  const ScopedSpan setup(tracer, SpanName::Setup);
  {
    const ScopedSpan span(tracer, SpanName::SetupGen);
    p.workload = std::make_unique<Workload>(generate(def, o.seed));
  }
  p.gen_s = std::chrono::duration<double>(Clock::now() - t0).count();
  {
    const ScopedSpan span(tracer, SpanName::SetupStack);
    p.stack = build_stack(def, *p.workload, o.seed, tracer);
  }
  {
    const ScopedSpan span(tracer, SpanName::SetupWarmup);
    dog.arm("warm-up");
    const Snapshot before = snapshot(*p.stack);
    Phase warm(*p.workload, 0, def.warmup_jobs, Clock::time_point::max(),
               tracer, &dog);
    const PhaseResult r = run_phase(def, *p.stack, warm);
    dog.arm(nullptr);
    check_phase(*p.stack, before, snapshot(*p.stack), r, "warm-up", failures);
  }
  p.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return p;
}

/// Runs the timed phase on a prepared stack.
PhaseResult timed_phase(const WorkloadDef& def, double seconds, Prepared& p,
                        Tracer* tracer, Watchdog& dog, const char* name,
                        Snapshot* before, Snapshot* after,
                        std::vector<std::string>& failures) {
  *before = snapshot(*p.stack);
  if (tracer != nullptr) tracer->set_recording(true);
  dog.arm(name);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Phase phase(*p.workload, def.warmup_jobs,
              std::numeric_limits<std::size_t>::max(), deadline, tracer,
              &dog);
  PhaseResult r = run_phase(def, *p.stack, phase);
  dog.arm(nullptr);
  if (tracer != nullptr) tracer->set_recording(false);
  *after = snapshot(*p.stack);
  r.staged = {after->staging.files - before->staging.files,
              after->staging.bytes - before->staging.bytes,
              after->staging.fetch_s - before->staging.fetch_s};
  check_phase(*p.stack, *before, *after, r, name, failures);
  if (r.tally.completed == 0)
    failures.push_back(std::string(name) + ": no job completed");
  return r;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int run(const Options& o) {
  const WorkloadDef& def = find_workload(o.workload);
  Watchdog dog(def.name);
  std::vector<std::string> failures;
  Metrics metrics;

  // Untraced: kSetups times, set up a stack and time it for an equal
  // share of --seconds. setup_s is the median set-up time.
  std::vector<double> setup_times;
  std::vector<double> gen_times;
  std::vector<PhaseResult> parts;
  Snapshot a;
  Snapshot b;
  Prepared p;
  const double share = o.seconds / static_cast<double>(kSetups);
  for (std::size_t i = 0; i < kSetups; ++i) {
    p = Prepared{};  // tear the previous stack down first
    p = prepare(def, o, nullptr, dog, failures);
    setup_times.push_back(p.setup_s);
    gen_times.push_back(p.gen_s);
    parts.push_back(
        timed_phase(def, share, p, nullptr, dog, "timed", &a, &b, failures));
  }
  const PhaseResult untraced = pool(parts);
  end_to_end(untraced, median_of(setup_times), metrics);
  std::uint64_t attempted = untraced.tally.attempted;
  std::uint64_t failed = untraced.tally.failed;

  if (o.trace) {
    const Reference ref = serial_reference(def, *p.workload);
    p = Prepared{};
    Tracer tracer(kSpansKeptPerThread);
    Prepared tp = prepare(def, o, &tracer, dog, failures);
    gen_times.push_back(tp.gen_s);
    const PhaseResult traced = timed_phase(def, o.seconds, tp, &tracer, dog,
                                           "traced", &a, &b, failures);
    attempted += traced.tally.attempted;
    failed += traced.tally.failed;
    // Close the clients and daemon so every span has ended.
    tp.stack->clients.clear();
    tp.stack->daemon.reset();
    const ledger::SpanTotals spans = tracer.totals();
    // Every load-generator acquire reaches the server seam exactly once.
    const std::uint64_t seam_acquires =
        spans.calls(SpanName::EndpointAcquire);
    const std::uint64_t client_acquires =
        spans.calls(SpanName::LoadAcquire) +
        spans.calls(SpanName::LoadReleaseAcquire);
    if (seam_acquires != client_acquires)
      failures.push_back("traced: endpoint-seam acquires " +
                         std::to_string(seam_acquires) +
                         " != client acquires " +
                         std::to_string(client_acquires));
    per_layer(def, untraced, traced, a, b, spans, ref, median_of(gen_times),
              metrics);
    print_layer_table(def, traced, a, b, spans);

    std::filesystem::create_directories(o.spans_dir);
    const std::string path = o.spans_dir + "/spans-" + def.name + "-seed" +
                             std::to_string(o.seed) + ".tsv";
    std::ofstream out(path);
    tracer.write_tsv(out);
    if (!out) failures.push_back("could not write " + path);
    std::fprintf(stderr, "ledger: spans written to %s\n", path.c_str());
  }

  std::ostringstream json;
  json << std::setprecision(15);
  json << "{\"workload\": \"" << def.name << "\", \"seed\": " << o.seed
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"checks_failed\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    json << (i > 0 ? ", " : "") << '"' << json_escape(failures[i]) << '"';
  json << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << (std::isfinite(metric.value) ? metric.value : 0.0)
         << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  for (const std::string& f : failures)
    std::fprintf(stderr, "ledger: check failed: %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
}
