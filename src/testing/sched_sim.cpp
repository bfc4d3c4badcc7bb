#include "testing/sched_sim.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "grid/mss.hpp"

namespace fbc::testing {
namespace {

using service::AcquireResult;
using service::AcquireStatus;
using service::BundleServer;
using service::ServiceConfig;

/// Spins until `ready` returns true; throws after ~10s so a harness bug
/// (an acquire that neither queues nor returns) fails loudly instead of
/// hanging the test binary.
template <typename Pred>
void await(const Pred& ready, const char* what) {
  for (int i = 0; i < 100000; ++i) {
    if (ready()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  throw std::runtime_error(std::string("sched_sim: stalled waiting for ") +
                           what);
}

}  // namespace

SchedInstance generate_sched_instance(const SchedGenConfig& config, Rng& rng) {
  SchedInstance instance;
  const std::size_t files =
      rng.uniform_u64(config.min_files, config.max_files);
  std::vector<Bytes> sizes(files);
  Bytes total = 0;
  for (Bytes& s : sizes) {
    s = rng.uniform_u64(config.min_file_bytes, config.max_file_bytes);
    total += s;
  }
  instance.catalog = FileCatalog(std::move(sizes));

  const std::size_t clients = 1 + rng.index(config.max_clients);
  instance.wave = 1 + rng.index(config.max_wave);
  const std::size_t ops = rng.uniform_u64(config.min_ops, config.max_ops);
  Bytes largest = 0;
  const std::size_t hot = std::min(config.hot_files, files);
  for (std::size_t i = 0; i < ops; ++i) {
    SchedOp op;
    op.client = static_cast<std::uint32_t>(rng.index(clients));
    op.release_oldest = rng.bernoulli(config.release_prob);
    const std::size_t picks = 1 + rng.index(config.max_bundle_files);
    std::vector<FileId> bundle;
    for (std::size_t p = 0; p < picks; ++p) {
      const bool from_hot = hot > 0 && rng.bernoulli(config.hot_prob);
      bundle.push_back(static_cast<FileId>(
          from_hot ? rng.index(hot) : rng.index(files)));
    }
    op.request = Request(std::move(bundle));  // canonicalizes (sorted/unique)
    largest = std::max(largest,
                       instance.catalog.bundle_bytes(op.request.files));
    instance.ops.push_back(std::move(op));
  }
  // Big enough that every wave resolves, small enough that replays evict.
  const auto frac = static_cast<Bytes>(
      static_cast<double>(total) * rng.uniform_double(0.3, 0.7));
  instance.cache_bytes =
      std::max({largest, frac, feasible_cache_floor(instance)});
  return instance;
}

Bytes feasible_cache_floor(const SchedInstance& instance) {
  // Exact simulation of the replay's pin/release order. The sufficient
  // fit condition is pinned_bytes + bundle_bytes <= capacity: everything
  // resident but unpinned (and not part of the incoming bundle) is
  // evictable, so free + evictable >= capacity - pinned - bundle, which
  // covers the bundle's missing bytes.
  std::vector<std::uint32_t> pins(instance.catalog.count(), 0);
  Bytes pinned = 0;
  const auto pin = [&](const Request& r) {
    for (FileId id : r.files)
      if (pins[id]++ == 0) pinned += instance.catalog.size_of(id);
  };
  const auto unpin = [&](const Request& r) {
    for (FileId id : r.files)
      if (--pins[id] == 0) pinned -= instance.catalog.size_of(id);
  };
  std::vector<std::deque<const Request*>> held;
  for (const SchedOp& op : instance.ops)
    if (op.client >= held.size()) held.resize(op.client + 1);
  Bytes floor = 0;
  for (std::size_t start = 0; start < instance.ops.size();
       start += instance.wave) {
    const std::size_t end =
        std::min(instance.ops.size(), start + instance.wave);
    // Releases run during the paused enqueue phase, before any of the
    // wave's admissions; admissions then drain in op (queue) order.
    for (std::size_t i = start; i < end; ++i) {
      const SchedOp& op = instance.ops[i];
      if (op.release_oldest && !held[op.client].empty()) {
        unpin(*held[op.client].front());
        held[op.client].pop_front();
      }
    }
    for (std::size_t i = start; i < end; ++i) {
      const SchedOp& op = instance.ops[i];
      floor = std::max(
          floor, pinned + instance.catalog.bundle_bytes(op.request.files));
      pin(op.request);
      held[op.client].push_back(&op.request);
    }
  }
  return floor;
}

std::string to_string(const SchedOutcome& outcome) {
  std::ostringstream out;
  for (std::size_t i = 0; i < outcome.grants.size(); ++i) {
    const GrantRecord& g = outcome.grants[i];
    out << "op " << i << ": client " << g.client << " status "
        << static_cast<int>(g.status) << " hit " << static_cast<int>(g.hit)
        << "\n";
  }
  out << "resident:";
  for (FileId id : outcome.resident) out << ' ' << id;
  out << "\nrequests=" << outcome.requests << " hits=" << outcome.request_hits
      << " evictions=" << outcome.evictions
      << " rejected_full=" << outcome.rejected_full << "\n";
  return out.str();
}

SchedOutcome run_schedule(const SchedInstance& instance,
                          ServiceConfig config) {
  config.cache_bytes = instance.cache_bytes;
  config.order = service::AdmitOrder::Fifo;  // queue order == arrival order
  config.time_scale = 0.0;                   // virtual staging time only
  MassStorageSystem mss(default_tiers(), instance.catalog);
  BundleServer server(config, mss);

  SchedOutcome outcome;
  outcome.grants.resize(instance.ops.size());
  std::vector<std::deque<service::LeaseId>> held(
      1 + (instance.ops.empty()
               ? 0
               : std::max_element(instance.ops.begin(), instance.ops.end(),
                                  [](const SchedOp& a, const SchedOp& b) {
                                    return a.client < b.client;
                                  })
                     ->client));

  std::vector<AcquireResult> results(instance.ops.size());
  std::vector<std::exception_ptr> errors(instance.ops.size());
  for (std::size_t start = 0; start < instance.ops.size();
       start += instance.wave) {
    const std::size_t end =
        std::min(instance.ops.size(), start + instance.wave);
    server.set_admission_paused(true);
    std::vector<std::thread> threads;
    std::vector<std::atomic<bool>> done(end - start);
    std::uint64_t queued = 0;
    for (std::size_t i = start; i < end; ++i) {
      const SchedOp& op = instance.ops[i];
      if (op.release_oldest && !held[op.client].empty()) {
        server.release(held[op.client].front());
        held[op.client].pop_front();
      }
      std::atomic<bool>& flag = done[i - start];
      threads.emplace_back([&server, &op, &results, &errors, &flag, i] {
        // An exception out of acquire (e.g. EngineDivergence from a
        // shadow-diff policy, thrown by whichever waiter ran the drain
        // pass) must not std::terminate the binary or strand the rest of
        // the wave in the queue: capture it and close the server so every
        // other waiter returns Closed, then rethrow after the join.
        try {
          results[i] = server.acquire(op.request);
        } catch (...) {
          errors[i] = std::current_exception();
          server.close();
        }
        flag.store(true, std::memory_order_release);
      });
      // Arrival order is program order: the next acquire is not issued
      // until this one is visibly queued -- or already finished (it was
      // rejected before queueing, or admission raced the pause and
      // granted it; either way its effect on the queue is settled).
      const std::uint64_t target = queued + 1;
      await(
          [&] {
            return server.stats().queue_depth >= target ||
                   done[i - start].load(std::memory_order_acquire);
          },
          "enqueue");
      if (server.stats().queue_depth >= target) ++queued;
    }
    server.set_admission_paused(false);
    for (std::thread& t : threads) t.join();
    for (std::size_t i = start; i < end; ++i)
      if (errors[i]) std::rethrow_exception(errors[i]);
    for (std::size_t i = start; i < end; ++i) {
      const SchedOp& op = instance.ops[i];
      GrantRecord& g = outcome.grants[i];
      g.client = op.client;
      g.status = static_cast<std::uint8_t>(results[i].status);
      g.hit = results[i].request_hit ? 1 : 0;
      if (results[i].status == AcquireStatus::Ok)
        held[op.client].push_back(results[i].lease);
    }
  }

  for (std::deque<service::LeaseId>& leases : held)
    for (service::LeaseId lease : leases) server.release(lease);

  const std::vector<std::string> violations = server.audit();
  if (!violations.empty())
    throw std::runtime_error("sched_sim: audit failed after replay: " +
                             violations.front());

  const service::ServiceStats stats = server.stats();
  outcome.resident = server.resident_files();
  outcome.requests = stats.requests;
  outcome.request_hits = stats.request_hits;
  outcome.evictions = stats.evictions;
  outcome.rejected_full = stats.rejected_full;
  return outcome;
}

std::optional<std::string> check_batch_equivalence(
    const SchedInstance& instance, std::size_t batch,
    const ServiceConfig& config) {
  ServiceConfig serial = config;
  serial.admission_batch = 1;
  ServiceConfig batched = config;
  batched.admission_batch = batch;
  const SchedOutcome a = run_schedule(instance, serial);
  const SchedOutcome b = run_schedule(instance, batched);
  if (a == b) return std::nullopt;
  std::ostringstream out;
  out << "batched (admission_batch=" << batch
      << ") diverged from serial replay\n--- serial ---\n"
      << to_string(a) << "--- batched ---\n"
      << to_string(b);
  return out.str();
}

SchedInstance shrink_sched_instance(SchedInstance instance,
                                    const SchedPredicate& pred) {
  if (!pred(instance))
    throw std::invalid_argument(
        "shrink_sched_instance: predicate is false on the input");
  // Pass 1: drop op chunks, halves down to singles (delta-debugging).
  for (std::size_t chunk = std::max<std::size_t>(1, instance.ops.size() / 2);
       chunk >= 1; chunk /= 2) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t start = 0; start + chunk <= instance.ops.size();) {
        SchedInstance candidate = instance;
        candidate.ops.erase(
            candidate.ops.begin() + static_cast<std::ptrdiff_t>(start),
            candidate.ops.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        // Dropping an op can drop a *release*, leaving a later admission
        // infeasible at the stored capacity (its wave would stall until
        // the admission timeout). Keep candidates feasible by raising the
        // capacity to the new floor when needed.
        candidate.cache_bytes =
            std::max(candidate.cache_bytes, feasible_cache_floor(candidate));
        if (!candidate.ops.empty() && pred(candidate)) {
          instance = std::move(candidate);
          progress = true;
        } else {
          start += chunk;
        }
      }
    }
    if (chunk == 1) break;
  }
  // Pass 2: drop individual files from bundles.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < instance.ops.size(); ++i) {
      for (std::size_t f = 0; f < instance.ops[i].request.files.size();) {
        if (instance.ops[i].request.files.size() == 1) break;
        SchedInstance candidate = instance;
        candidate.ops[i].request.files.erase(
            candidate.ops[i].request.files.begin() +
            static_cast<std::ptrdiff_t>(f));
        if (pred(candidate)) {
          instance = std::move(candidate);
          progress = true;
        } else {
          ++f;
        }
      }
    }
  }
  return instance;
}

Trace sched_instance_to_trace(const SchedInstance& instance) {
  Trace trace;
  trace.catalog = instance.catalog;
  std::string clients;
  std::string releases;
  for (const SchedOp& op : instance.ops) {
    trace.jobs.push_back(op.request);
    if (!clients.empty()) clients += ',';
    clients += std::to_string(op.client);
    if (!releases.empty()) releases += ',';
    releases += op.release_oldest ? '1' : '0';
  }
  trace.set_meta("kind", "serve");
  trace.set_meta("cache_bytes", std::to_string(instance.cache_bytes));
  trace.set_meta("wave", std::to_string(instance.wave));
  trace.set_meta("clients", clients);
  trace.set_meta("releases", releases);
  return trace;
}

SchedInstance sched_instance_from_trace(const Trace& trace) {
  const std::string* cache_bytes = trace.meta_value("cache_bytes");
  const std::string* wave = trace.meta_value("wave");
  const std::string* clients = trace.meta_value("clients");
  const std::string* releases = trace.meta_value("releases");
  if (cache_bytes == nullptr || wave == nullptr || clients == nullptr ||
      releases == nullptr)
    throw std::runtime_error(
        "serve reproducer needs cache_bytes/wave/clients/releases meta");
  const auto split = [](const std::string& csv) {
    std::vector<std::string> out;
    std::istringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ',')) out.push_back(item);
    return out;
  };
  const std::vector<std::string> client_items = split(*clients);
  const std::vector<std::string> release_items = split(*releases);
  if (client_items.size() != trace.jobs.size() ||
      release_items.size() != trace.jobs.size())
    throw std::runtime_error(
        "serve reproducer clients/releases do not match the job count");
  SchedInstance instance;
  instance.catalog = trace.catalog;
  instance.cache_bytes = meta_number<Bytes>("cache_bytes", *cache_bytes);
  instance.wave =
      std::max<std::size_t>(1, meta_number<std::size_t>("wave", *wave));
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    SchedOp op;
    op.client = meta_number<std::uint32_t>("clients", client_items[i]);
    op.release_oldest = release_items[i] == "1";
    op.request = trace.jobs[i];
    instance.ops.push_back(std::move(op));
  }
  return instance;
}

}  // namespace fbc::testing
