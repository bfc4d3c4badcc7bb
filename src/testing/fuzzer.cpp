#include "testing/fuzzer.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "testing/cluster_sim.hpp"
#include "testing/shrink.hpp"

#include "core/registry.hpp"

namespace fbc::testing {
namespace {

std::string queue_mode_name(QueueMode mode) {
  return mode == QueueMode::Sliding ? "sliding" : "batch";
}

/// ServiceConfig for the serving family: optfb on the Incremental engine
/// with the Reference engine attached as a lock-step shadow, so one
/// replay checks both batching equivalence and engine equivalence.
service::ServiceConfig serve_config(std::uint64_t seed) {
  service::ServiceConfig config;
  config.policy = "optfb";
  config.engine = SelectEngine::Incremental;
  config.seed = seed;
  config.policy_factory = [](const std::string& name,
                             const PolicyContext& context) {
    return make_shadow_policy("enginediff:" + name, context);
  };
  return config;
}

/// Runs the serial-vs-batched replay pair; returns the violation caught,
/// if any. EngineDivergence surfaces as its own oracle class.
std::optional<Violation> check_schedule(const SchedInstance& instance,
                                        std::size_t batch,
                                        std::uint64_t seed) {
  try {
    if (std::optional<std::string> diff =
            check_batch_equivalence(instance, batch, serve_config(seed)))
      return Violation{"serve_batch_equivalence", "optfb", *diff};
  } catch (const EngineDivergence& e) {
    return Violation{"serve_engine_diff", "optfb", e.what()};
  } catch (const std::exception& e) {
    return Violation{"serve_replay", "optfb", e.what()};
  }
  return std::nullopt;
}

/// Policies the cluster family draws from: the serving default, the
/// classic online baseline, and the paper's distributed online policy
/// (the one whose credits are designed to compose across shards).
constexpr const char* kClusterPolicies[] = {"optfb", "landlord",
                                            "dist-online"};

/// Runs the serial-router vs concurrent-router replay pair over a real
/// sharded cluster (optionally with a kill/revive fault plan); returns
/// the violation caught, if any.
std::optional<Violation> check_cluster(const SchedInstance& instance,
                                       const cluster::ClusterConfig& cluster,
                                       const FaultPlan& faults,
                                       const std::string& policy,
                                       std::uint64_t seed) {
  service::ServiceConfig config;
  config.policy = policy;
  config.seed = seed;
  std::string subject = policy + "/" + cluster::to_string(cluster.placement);
  if (!faults.empty())
    subject += "/faults=" + std::to_string(faults.events.size());
  try {
    if (std::optional<std::string> diff =
            check_cluster_equivalence(instance, config, cluster, faults))
      return Violation{"cluster_equivalence", subject, *diff};
  } catch (const std::exception& e) {
    // Audit violations, leaked scatter leases, lost deferred releases,
    // and stalled waves all surface as exceptions out of the replay.
    return Violation{"cluster_replay", subject, e.what()};
  }
  return std::nullopt;
}

/// Draws a kill/revive plan for `instance`: a few distinct victim shards
/// (never all of them, so placement always has somewhere to land), each
/// killed at a random wave boundary and, half the time, revived at a
/// later one -- the revive path is where deferred releases flush, so it
/// must be fuzzed as hard as the kill path.
FaultPlan generate_fault_plan(const SchedInstance& instance,
                              const cluster::ClusterConfig& cluster,
                              Rng& rng) {
  FaultPlan faults;
  const std::size_t wave_len = std::max<std::size_t>(1, instance.wave);
  const std::size_t waves =
      (instance.ops.size() + wave_len - 1) / wave_len;
  if (waves == 0 || cluster.shards < 2) return faults;
  std::vector<std::uint32_t> victims;
  for (std::uint32_t s = 0; s < cluster.shards; ++s) victims.push_back(s);
  const std::size_t kills = 1 + rng.index(cluster.shards - 1);
  for (std::size_t k = 0; k < kills; ++k) {
    // Partial Fisher-Yates: victims[k] is drawn without replacement.
    const std::size_t j = k + rng.index(victims.size() - k);
    std::swap(victims[k], victims[j]);
    FaultEvent kill;
    kill.wave = rng.index(waves);
    kill.shard = victims[k];
    kill.kill = true;
    faults.events.push_back(kill);
    if (kill.wave + 1 < waves && rng.bernoulli(0.5)) {
      FaultEvent revive;
      revive.wave = kill.wave + 1 + rng.index(waves - kill.wave - 1);
      revive.shard = victims[k];
      revive.kill = false;
      faults.events.push_back(revive);
    }
  }
  return faults;
}

/// Space-joined policy list for reproducer meta.
std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ' ';
    out += name;
  }
  return out;
}

/// Stamps failure provenance onto a reproducer trace.
void stamp(Trace& trace, const Violation& violation, std::uint64_t seed,
           std::uint64_t iteration) {
  trace.set_meta("oracle", violation.oracle);
  trace.set_meta("subject", violation.subject);
  // Oracle details are often multi-line state dumps, but meta values are
  // one line each on the wire -- flatten or the reproducer write throws.
  std::string detail = violation.detail;
  std::replace(detail.begin(), detail.end(), '\n', '|');
  trace.set_meta("detail", std::move(detail));
  trace.set_meta("seed", std::to_string(seed));
  trace.set_meta("iteration", std::to_string(iteration));
}

std::string write_reproducer(const Trace& trace, const std::string& out_dir,
                             const char* kind, std::uint64_t seed,
                             std::uint64_t iteration, std::ostream& log) {
  if (out_dir.empty()) return {};
  const std::string path = out_dir + "/fbcfuzz-" + kind + "-" +
                           std::to_string(seed) + "-" +
                           std::to_string(iteration) + ".trace";
  try {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);  // best effort
    save_trace(path, trace);
  } catch (const std::exception& e) {
    log << "fbcfuzz: failed to write reproducer " << path << ": " << e.what()
        << "\n";
    std::error_code ec;
    std::filesystem::remove(path, ec);  // drop any partial stub
    return {};
  }
  return path;
}

}  // namespace

FuzzReport run_fuzz(const FuzzConfig& config, std::ostream& log) {
  FuzzReport report;
  Rng master(config.seed);
  const std::vector<std::string> policies =
      config.policies.empty() ? policy_names() : config.policies;

  // One reproducer per distinct (oracle, subject) failure class.
  std::set<std::pair<std::string, std::string>> seen;
  auto fresh = [&](const Violation& v) {
    return seen.insert({v.oracle, v.subject}).second;
  };
  auto capped = [&] {
    return config.max_failures != 0 &&
           report.failures.size() >= config.max_failures;
  };

  for (std::uint64_t iter = 0; iter < config.iters && !capped(); ++iter) {
    ++report.iterations;
    const std::uint64_t iter_seed = master.derive_seed(iter);

    if (config.run_select) {
      Rng rng(iter_seed);
      SelectInstance instance =
          generate_select_instance(config.select_gen, rng);
      ++report.select_instances;
      SelectOracleStats stats;
      std::vector<Violation> violations = check_select_instance(
          instance, config.exact_node_budget, &stats);
      if (stats.exact_truncated) ++report.exact_truncations;
      for (const Violation& violation : violations) {
        if (!fresh(violation) || capped()) continue;
        log << "fbcfuzz: iter " << iter << ": " << violation.to_string()
            << "\n";
        SelectInstance repro = instance;
        if (config.shrink) {
          const std::uint64_t budget = config.exact_node_budget;
          repro = shrink_select_instance(
              std::move(repro), [&violation, budget](const SelectInstance& c) {
                return contains_failure(check_select_instance(c, budget),
                                        violation);
              });
        }
        Trace trace = select_instance_to_trace(repro);
        trace.set_meta("exact_nodes",
                       std::to_string(config.exact_node_budget));
        stamp(trace, violation, config.seed, iter);
        FuzzFailure failure;
        failure.violation = violation;
        failure.iteration = iter;
        failure.shrunk_jobs = repro.requests.size();
        failure.reproducer_path = write_reproducer(
            trace, config.out_dir, "select", config.seed, iter, log);
        log << "fbcfuzz: shrunk to " << failure.shrunk_jobs << " request(s)";
        if (!failure.reproducer_path.empty())
          log << ", wrote " << failure.reproducer_path;
        log << "\n";
        report.failures.push_back(std::move(failure));
      }
    }

    if (config.run_serve && !capped()) {
      Rng rng(iter_seed ^ 0x5e47ed1f5ULL);
      const SchedInstance instance =
          generate_sched_instance(config.sched_gen, rng);
      const std::size_t batch = 2 + rng.index(7);  // admission_batch 2..8
      ++report.serve_runs;
      std::optional<Violation> violation =
          check_schedule(instance, batch, iter_seed);
      if (violation.has_value() && fresh(*violation) && !capped()) {
        log << "fbcfuzz: iter " << iter << ": " << violation->to_string()
            << "\n";
        SchedInstance repro = instance;
        if (config.shrink) {
          const std::string oracle = violation->oracle;
          repro = shrink_sched_instance(
              std::move(repro),
              [batch, iter_seed, &oracle](const SchedInstance& c) {
                const std::optional<Violation> v =
                    check_schedule(c, batch, iter_seed);
                return v.has_value() && v->oracle == oracle;
              });
        }
        Trace trace = sched_instance_to_trace(repro);
        trace.set_meta("batch", std::to_string(batch));
        trace.set_meta("serve_seed", std::to_string(iter_seed));
        stamp(trace, *violation, config.seed, iter);
        FuzzFailure failure;
        failure.violation = std::move(*violation);
        failure.iteration = iter;
        failure.shrunk_jobs = repro.ops.size();
        failure.reproducer_path = write_reproducer(
            trace, config.out_dir, "serve", config.seed, iter, log);
        log << "fbcfuzz: shrunk to " << failure.shrunk_jobs << " op(s)";
        if (!failure.reproducer_path.empty())
          log << ", wrote " << failure.reproducer_path;
        log << "\n";
        report.failures.push_back(std::move(failure));
      }
    }

    if (config.run_cluster && !capped()) {
      Rng rng(iter_seed ^ 0xc1a57e4d1ULL);
      const SchedInstance instance =
          generate_sched_instance(config.sched_gen, rng);
      cluster::ClusterConfig cluster;
      cluster.shards = 2 + static_cast<std::uint32_t>(rng.index(3));
      cluster.placement = rng.bernoulli(0.5)
                              ? cluster::PlacementMode::BundleAffinity
                              : cluster::PlacementMode::HashFile;
      cluster.vnodes = 16;
      // Aggressive spill threshold so affinity placements actually
      // scatter at fuzz-sized caches.
      cluster.spill_threshold = 0.02 + rng.uniform_double(0.0, 0.2);
      // Low thresholds make health transitions reachable on fuzz-sized
      // schedules (one shard sees only a handful of ops per run).
      cluster.down_threshold = 1 + static_cast<std::uint32_t>(rng.index(3));
      const FaultPlan faults = rng.bernoulli(0.4)
                                   ? generate_fault_plan(instance, cluster, rng)
                                   : FaultPlan{};
      const std::string policy =
          kClusterPolicies[rng.index(std::size(kClusterPolicies))];
      ++report.cluster_runs;
      std::optional<Violation> violation =
          check_cluster(instance, cluster, faults, policy, iter_seed);
      if (violation.has_value() && fresh(*violation) && !capped()) {
        log << "fbcfuzz: iter " << iter << ": " << violation->to_string()
            << "\n";
        SchedInstance repro = instance;
        if (config.shrink) {
          const std::string oracle = violation->oracle;
          // The fault plan is held fixed while ops shrink: kill/revive
          // waves past the shrunk schedule's end simply never fire.
          repro = shrink_sched_instance(
              std::move(repro),
              [&cluster, &faults, &policy, iter_seed,
               &oracle](const SchedInstance& c) {
                const std::optional<Violation> v =
                    check_cluster(c, cluster, faults, policy, iter_seed);
                return v.has_value() && v->oracle == oracle;
              });
        }
        Trace trace = cluster_instance_to_trace(repro, cluster, faults);
        trace.set_meta("policy", policy);
        trace.set_meta("cluster_seed", std::to_string(iter_seed));
        stamp(trace, *violation, config.seed, iter);
        FuzzFailure failure;
        failure.violation = std::move(*violation);
        failure.iteration = iter;
        failure.shrunk_jobs = repro.ops.size();
        failure.reproducer_path = write_reproducer(
            trace, config.out_dir, "cluster", config.seed, iter, log);
        log << "fbcfuzz: shrunk to " << failure.shrunk_jobs << " op(s)";
        if (!failure.reproducer_path.empty())
          log << ", wrote " << failure.reproducer_path;
        log << "\n";
        report.failures.push_back(std::move(failure));
      }
    }

    if (config.run_optgen && !capped()) {
      Rng rng(iter_seed ^ 0x0917a6e41ULL);
      SimGenConfig gen = config.sim_gen;
      gen.drift_prob = 0.5;  // phase changes stress the oracle's window
      SimInstance instance = generate_sim_instance(gen, rng);
      // The oracle's service model is FCFS with no warm-up.
      instance.config.queue_length = 1;
      instance.config.queue_mode = QueueMode::Batch;
      instance.config.warmup_jobs = 0;
      OptgenCheckConfig check;
      check.cache_bytes = instance.config.cache_bytes;
      // Occasionally draw a tiny ring buffer so the interval-clipping
      // paths (truncated verdicts) are differential-tested too.
      check.window_quanta = rng.bernoulli(0.25) ? 1 + rng.index(16) : 4096;
      check.policies = policies;
      check.seed = iter_seed;
      ++report.optgen_runs;
      std::vector<Violation> violations = check_optgen(instance.trace, check);
      for (const Violation& violation : violations) {
        if (!fresh(violation) || capped()) continue;
        log << "fbcfuzz: iter " << iter << ": " << violation.to_string()
            << "\n";
        SimInstance repro = instance;
        if (config.shrink) {
          OptgenCheckConfig shrink_check = check;
          repro = shrink_sim_instance(
              std::move(repro),
              [&violation, shrink_check](const SimInstance& c) mutable {
                shrink_check.cache_bytes = c.config.cache_bytes;
                return contains_failure(check_optgen(c.trace, shrink_check),
                                        violation);
              });
        }
        Trace trace = repro.trace;
        trace.set_meta("kind", "optgen");
        trace.set_meta("cache_bytes",
                       std::to_string(repro.config.cache_bytes));
        trace.set_meta("window", std::to_string(check.window_quanta));
        trace.set_meta("policies", join_names(policies));
        trace.set_meta("policy_seed", std::to_string(iter_seed));
        stamp(trace, violation, config.seed, iter);
        FuzzFailure failure;
        failure.violation = violation;
        failure.iteration = iter;
        failure.shrunk_jobs = repro.trace.jobs.size();
        failure.reproducer_path = write_reproducer(
            trace, config.out_dir, "optgen", config.seed, iter, log);
        log << "fbcfuzz: shrunk to " << failure.shrunk_jobs << " job(s)";
        if (!failure.reproducer_path.empty())
          log << ", wrote " << failure.reproducer_path;
        log << "\n";
        report.failures.push_back(std::move(failure));
      }
    }

    if (config.run_sim && !capped()) {
      Rng rng(iter_seed ^ 0x51f7a11ceULL);
      const SimInstance instance = generate_sim_instance(config.sim_gen, rng);
      for (const std::string& policy : policies) {
        if (capped()) break;
        ++report.sim_runs;
        std::vector<Violation> violations = check_simulation(
            instance.trace, instance.config, policy, iter_seed);
        for (const Violation& violation : violations) {
          if (!fresh(violation) || capped()) continue;
          log << "fbcfuzz: iter " << iter << ": " << violation.to_string()
              << "\n";
          SimInstance repro = instance;
          if (config.shrink) {
            const std::uint64_t seed = iter_seed;
            repro = shrink_sim_instance(
                std::move(repro),
                [&violation, &policy, seed](const SimInstance& c) {
                  return contains_failure(
                      check_simulation(c.trace, c.config, policy, seed),
                      violation);
                });
          }
          Trace trace = repro.trace;
          trace.set_meta("kind", "sim");
          trace.set_meta("policy", policy);
          trace.set_meta("cache_bytes",
                         std::to_string(repro.config.cache_bytes));
          trace.set_meta("queue_length",
                         std::to_string(repro.config.queue_length));
          trace.set_meta("queue_mode",
                         queue_mode_name(repro.config.queue_mode));
          trace.set_meta("warmup", std::to_string(repro.config.warmup_jobs));
          trace.set_meta("policy_seed", std::to_string(iter_seed));
          stamp(trace, violation, config.seed, iter);
          FuzzFailure failure;
          failure.violation = violation;
          failure.iteration = iter;
          failure.shrunk_jobs = repro.trace.jobs.size();
          failure.reproducer_path = write_reproducer(
              trace, config.out_dir, "sim", config.seed, iter, log);
          log << "fbcfuzz: shrunk to " << failure.shrunk_jobs << " job(s)";
          if (!failure.reproducer_path.empty())
            log << ", wrote " << failure.reproducer_path;
          log << "\n";
          report.failures.push_back(std::move(failure));
        }
      }
    }
  }
  return report;
}

std::vector<Violation> replay_reproducer(const Trace& trace) {
  const std::string* kind = trace.meta_value("kind");
  if (kind == nullptr)
    throw std::runtime_error("replay: trace has no 'kind' meta entry");

  if (*kind == "select") {
    const SelectInstance instance = select_instance_from_trace(trace);
    return check_select_instance(
        instance, meta_number_or<std::uint64_t>(trace, "exact_nodes", 0));
  }
  if (*kind == "serve") {
    const SchedInstance instance = sched_instance_from_trace(trace);
    const auto batch = meta_number_or<std::size_t>(trace, "batch", 4);
    const auto seed = meta_number_or<std::uint64_t>(trace, "serve_seed", 1);
    if (std::optional<Violation> v = check_schedule(instance, batch, seed))
      return {std::move(*v)};
    return {};
  }
  if (*kind == "cluster") {
    const auto [instance, cluster, faults] =
        cluster_instance_from_trace(trace);
    std::string policy = "optfb";
    if (const std::string* p = trace.meta_value("policy")) policy = *p;
    const auto seed = meta_number_or<std::uint64_t>(trace, "cluster_seed", 1);
    if (std::optional<Violation> v =
            check_cluster(instance, cluster, faults, policy, seed))
      return {std::move(*v)};
    return {};
  }
  if (*kind == "optgen") {
    const std::string* cache_bytes = trace.meta_value("cache_bytes");
    if (cache_bytes == nullptr)
      throw std::runtime_error(
          "replay: optgen reproducer needs 'cache_bytes' meta");
    OptgenCheckConfig check;
    check.cache_bytes = meta_number<Bytes>("cache_bytes", *cache_bytes);
    check.window_quanta = meta_number_or(trace, "window", check.window_quanta);
    if (const std::string* names = trace.meta_value("policies")) {
      std::istringstream row(*names);
      std::string name;
      while (row >> name) check.policies.push_back(name);
    }
    check.seed = meta_number_or(trace, "policy_seed", check.seed);
    return check_optgen(trace, check);
  }
  if (*kind == "sim") {
    const std::string* policy = trace.meta_value("policy");
    const std::string* cache_bytes = trace.meta_value("cache_bytes");
    if (policy == nullptr || cache_bytes == nullptr)
      throw std::runtime_error(
          "replay: sim reproducer needs 'policy' and 'cache_bytes' meta");
    SimulatorConfig config;
    config.cache_bytes = meta_number<Bytes>("cache_bytes", *cache_bytes);
    config.queue_length =
        meta_number_or(trace, "queue_length", config.queue_length);
    if (const std::string* mode = trace.meta_value("queue_mode"))
      config.queue_mode =
          *mode == "sliding" ? QueueMode::Sliding : QueueMode::Batch;
    config.warmup_jobs = meta_number_or(trace, "warmup", config.warmup_jobs);
    const auto seed =
        meta_number_or<std::uint64_t>(trace, "policy_seed", 0x5eedULL);
    return check_simulation(trace, config, *policy, seed);
  }
  throw std::runtime_error("replay: unknown reproducer kind '" + *kind + "'");
}

}  // namespace fbc::testing
