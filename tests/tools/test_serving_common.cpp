// Serving-tool plumbing tests: the RetryBudget that caps cumulative
// QueueFull backoff at the per-request timeout (the fbcload retry
// regression), the flag lists that map CLI flags onto ServiceConfig and
// ClusterConfig for every serving tool, including fbcgrid's forwarding of
// them to its fbcd shards, and fbcsim's PolicyContext list.
#include "tools/serving_common.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace fbc::tools {
namespace {

TEST(RetryBudget, HonorsTheServerHintWithinBudget) {
  RetryBudget budget(100);
  EXPECT_EQ(budget.next_delay(30), std::optional<std::uint64_t>(30));
  EXPECT_EQ(budget.remaining_ms(), 70u);
}

TEST(RetryBudget, ZeroHintStillYieldsAtLeastOneMillisecond) {
  // A zero retry_after_ms hint must not turn the client into a busy
  // spinner against a loaded server.
  RetryBudget budget(10);
  EXPECT_EQ(budget.next_delay(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(budget.remaining_ms(), 9u);
}

TEST(RetryBudget, LastDelayIsClampedToWhatIsLeft) {
  RetryBudget budget(40);
  EXPECT_EQ(budget.next_delay(25), std::optional<std::uint64_t>(25));
  // Hint exceeds the 15ms left: sleep only the remainder...
  EXPECT_EQ(budget.next_delay(25), std::optional<std::uint64_t>(15));
  // ...then give up instead of sleeping past the request timeout.
  EXPECT_EQ(budget.next_delay(25), std::nullopt);
  EXPECT_EQ(budget.remaining_ms(), 0u);
}

TEST(RetryBudget, ZeroTimeoutNeverRetries) {
  RetryBudget budget(0);
  EXPECT_EQ(budget.next_delay(1), std::nullopt);
}

TEST(RetryBudget, CumulativeSleepNeverExceedsTheTimeout) {
  // The regression this class exists for: N attempts x a deep-queue hint
  // must not sleep N * hint. Whatever hints the server hands out, the
  // total sleep is bounded by the construction-time budget.
  constexpr std::uint64_t kTimeoutMs = 250;
  RetryBudget budget(kTimeoutMs);
  std::uint64_t slept = 0;
  std::size_t attempts = 0;
  const std::uint32_t hints[] = {0, 90, 7, 1000, 90, 90, 90};
  for (std::size_t i = 0;; i = (i + 1) % std::size(hints)) {
    const std::optional<std::uint64_t> delay = budget.next_delay(hints[i]);
    if (!delay.has_value()) break;
    slept += *delay;
    ++attempts;
    ASSERT_LT(attempts, 1000u) << "budget failed to exhaust";
  }
  EXPECT_EQ(slept, kTimeoutMs);  // budget spent exactly, never exceeded
  EXPECT_EQ(budget.remaining_ms(), 0u);
}

/// Field-by-field ServiceConfig equality (policy_factory compared only by
/// presence; it is a code seam, not a flag).
void expect_same_service_config(const service::ServiceConfig& a,
                                const service::ServiceConfig& b) {
  EXPECT_EQ(a.cache_bytes, b.cache_bytes);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.timeout_ms, b.timeout_ms);
  EXPECT_EQ(a.max_retries, b.max_retries);
  EXPECT_EQ(a.retry_backoff_ms, b.retry_backoff_ms);
  EXPECT_EQ(a.transfer_fail_prob, b.transfer_fail_prob);
  EXPECT_EQ(a.time_scale, b.time_scale);
  EXPECT_EQ(a.transfer_streams, b.transfer_streams);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.retry_after_cap_ms, b.retry_after_cap_ms);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.admission_batch, b.admission_batch);
  EXPECT_EQ(a.shadow_diff, b.shadow_diff);
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(static_cast<bool>(a.policy_factory),
            static_cast<bool>(b.policy_factory));
}

void expect_same_cluster_config(const cluster::ClusterConfig& a,
                                const cluster::ClusterConfig& b) {
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.spill_threshold, b.spill_threshold);
  EXPECT_EQ(a.vnodes, b.vnodes);
  EXPECT_EQ(a.replica_sites, b.replica_sites);
  EXPECT_EQ(a.replicate_hot, b.replicate_hot);
  EXPECT_EQ(a.remote_pool_cap, b.remote_pool_cap);
  EXPECT_EQ(a.down_threshold, b.down_threshold);
  EXPECT_EQ(a.probe_ms, b.probe_ms);
}

/// Every service flag set away from its default (--shard-id included).
const std::vector<std::string> kNonDefaultServiceFlags = {
    "--cache=2MiB",          "--policy=lru",        "--max-queue=9",
    "--order=value",         "--timeout-ms=1234",   "--max-retries=5",
    "--retry-backoff-ms=20", "--fail-prob=0.25",    "--time-scale=0.125",
    "--streams=2",           "--seed=77",           "--retry-cap-ms=500",
    "--engine=reference",    "--admission-batch=3", "--shadow-diff",
    "--shard-id=6"};

TEST(ServingCommon, ServiceFlagsMapOntoEveryConfigField) {
  CliParser cli("test", "flag mapping");
  add_service_options(cli);
  cli.parse(kNonDefaultServiceFlags);
  const service::ServiceConfig config = service_config_from_cli(cli);
  EXPECT_EQ(config.cache_bytes, 2u * MiB);
  EXPECT_EQ(config.policy, "lru");
  EXPECT_EQ(config.max_queue, 9u);
  EXPECT_EQ(config.order, service::AdmitOrder::ValueDensity);
  EXPECT_EQ(config.timeout_ms, 1234u);
  EXPECT_EQ(config.max_retries, 5u);
  EXPECT_EQ(config.retry_backoff_ms, 20u);
  EXPECT_DOUBLE_EQ(config.transfer_fail_prob, 0.25);
  EXPECT_DOUBLE_EQ(config.time_scale, 0.125);
  EXPECT_EQ(config.transfer_streams, 2u);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.retry_after_cap_ms, 500u);
  EXPECT_EQ(config.engine, SelectEngine::Reference);
  EXPECT_EQ(config.admission_batch, 3u);
  EXPECT_TRUE(config.shadow_diff);
  EXPECT_EQ(config.shard_id, 6u);
  // --shadow-diff must install the enginediff policy factory, or the
  // flag would silently do nothing at the server.
  EXPECT_TRUE(static_cast<bool>(config.policy_factory));
}

TEST(ServingCommon, DefaultsKeepTheOptimizedServingPath) {
  CliParser cli("test", "defaults");
  add_service_options(cli);
  cli.parse(std::vector<std::string>{});
  const service::ServiceConfig config = service_config_from_cli(cli);
  EXPECT_EQ(config.engine, SelectEngine::Incremental);
  EXPECT_GT(config.admission_batch, 1u);
  EXPECT_FALSE(config.shadow_diff);
  EXPECT_FALSE(static_cast<bool>(config.policy_factory));
}

TEST(ServingCommon, EmptyArgvParsesToTheStructDefaults) {
  // The --help defaults are rendered from the structs' own initializers;
  // they must parse back to exactly those values.
  CliParser cli("test", "defaults");
  add_service_options(cli);
  add_cluster_options(cli);
  cli.parse(std::vector<std::string>{});
  expect_same_service_config(service_config_from_cli(cli),
                             service::ServiceConfig{});
  expect_same_cluster_config(cluster_config_from_cli(cli),
                             cluster::ClusterConfig{});
}

TEST(ServingCommon, ClusterFlagsMapOntoEveryConfigField) {
  CliParser cli("test", "cluster flag mapping");
  add_cluster_options(cli);
  cli.parse({"--shards=3", "--placement=hash", "--spill-threshold=0.75",
             "--vnodes=16", "--replica-sites=2", "--replicate-hot=5",
             "--remote-pool-cap=4", "--down-threshold=7", "--probe-ms=0"});
  const cluster::ClusterConfig config = cluster_config_from_cli(cli);
  EXPECT_EQ(config.shards, 3u);
  EXPECT_EQ(config.placement, cluster::PlacementMode::HashFile);
  EXPECT_DOUBLE_EQ(config.spill_threshold, 0.75);
  EXPECT_EQ(config.vnodes, 16u);
  EXPECT_EQ(config.replica_sites, 2u);
  EXPECT_EQ(config.replicate_hot, 5u);
  EXPECT_EQ(config.remote_pool_cap, 4u);
  EXPECT_EQ(config.down_threshold, 7u);
  EXPECT_EQ(config.probe_ms, 0u);
}

TEST(PolicyFlags, MapOntoEveryContextKnob) {
  // fbcsim's list: every kPolicyFlags row set away from its default lands
  // in its PolicyContext member; catalog and jobs have no row.
  CliParser cli("fbcsim", "policy flag mapping");
  add_flags(cli, kPolicyFlags);
  cli.parse({"--seed=9", "--window=250", "--aging=0.5", "--history-cap=40",
             "--engine=incremental", "--duel-sample=3", "--duel-phase=17"});
  const PolicyContext context = read_flags(cli, kPolicyFlags);
  EXPECT_EQ(context.seed, 9u);
  EXPECT_EQ(context.history_window_jobs, 250u);
  EXPECT_DOUBLE_EQ(context.aging_factor, 0.5);
  EXPECT_EQ(context.history_max_entries, 40u);
  EXPECT_EQ(context.select_engine, SelectEngine::Incremental);
  EXPECT_EQ(context.duel_sample_period, 3u);
  EXPECT_EQ(context.duel_phase_jobs, 17u);
  EXPECT_EQ(context.catalog, nullptr);
  EXPECT_TRUE(context.jobs.empty());
}

TEST(PolicyFlags, DefaultsComeFromTheContextTheToolPasses) {
  // fbcsim keeps --seed=1 although PolicyContext defaults to 0x5eed.
  PolicyContext defaults;
  defaults.seed = 1;
  CliParser cli("fbcsim", "policy flag defaults");
  add_flags(cli, kPolicyFlags, defaults);
  cli.parse(std::vector<std::string>{});
  const PolicyContext context = read_flags(cli, kPolicyFlags);
  EXPECT_EQ(context.seed, 1u);
  EXPECT_EQ(context.history_window_jobs, defaults.history_window_jobs);
  EXPECT_DOUBLE_EQ(context.aging_factor, defaults.aging_factor);
  EXPECT_EQ(context.history_max_entries, defaults.history_max_entries);
  EXPECT_EQ(context.select_engine, defaults.select_engine);
  EXPECT_EQ(context.duel_sample_period, defaults.duel_sample_period);
  EXPECT_EQ(context.duel_phase_jobs, defaults.duel_phase_jobs);
}

TEST(ServingCommon, NarrowFlagsRejectValuesThatWouldWrap) {
  // 2^32 used to wrap to 0 (an instant timeout) and 2^32+1 to a
  // one-shard cluster the router accepted.
  CliParser cli("test", "narrowing");
  add_service_options(cli);
  add_cluster_options(cli);
  cli.parse({"--timeout-ms=4294967296", "--shards=4294967297"});
  try {
    (void)service_config_from_cli(cli);
    ADD_FAILURE() << "--timeout-ms=2^32 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--timeout-ms"), std::string::npos)
        << e.what();
  }
  try {
    (void)cluster_config_from_cli(cli);
    ADD_FAILURE() << "--shards=2^32+1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos)
        << e.what();
  }

  // UINT32_MAX itself is still a valid value.
  CliParser edge("test", "edge");
  add_service_options(edge);
  edge.parse({"--timeout-ms=4294967295"});
  EXPECT_EQ(service_config_from_cli(edge).timeout_ms, 4294967295u);
}

TEST(ServingCommon, ShardDaemonArgsForwardEveryServiceFlag) {
  // A grid CLI with every service flag away from its default...
  CliParser grid("fbcgrid", "grid");
  add_service_options(grid);
  add_scenario_options(grid);
  add_cluster_options(grid);
  grid.add_option("workers", "connection handler threads", "8");
  std::vector<std::string> argv = kNonDefaultServiceFlags;
  argv.insert(argv.end(), {"--workers=3", "--scenario=henp", "--wseed=9",
                           "--jobs=50", "--tier-mix=0.1,0.2"});
  grid.parse(argv);
  const service::ServiceConfig grid_config = service_config_from_cli(grid);

  // ...must reach a spawned shard unchanged, apart from its shard id.
  constexpr std::uint32_t kShard = 2;
  CliParser fbcd("fbcd", "shard");
  add_service_options(fbcd);
  add_scenario_options(fbcd);
  fbcd.add_option("port", "TCP port", "7401");
  fbcd.add_option("workers", "connection handler threads", "8");
  fbcd.parse(shard_daemon_args(grid, kShard));
  const service::ServiceConfig shard_config = service_config_from_cli(fbcd);

  EXPECT_EQ(shard_config.shard_id, kShard);
  service::ServiceConfig expected = grid_config;
  expected.shard_id = kShard;
  expect_same_service_config(shard_config, expected);
  for (const char* flag : {"workers", "scenario", "wseed", "jobs",
                           "tier-mix"})
    EXPECT_EQ(fbcd.get_string(flag), grid.get_string(flag)) << flag;
  EXPECT_EQ(fbcd.get_u64("port"), 0u);
}

}  // namespace
}  // namespace fbc::tools
