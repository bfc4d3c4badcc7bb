// End-to-end tests for the fuzzing loop: clean campaigns stay clean, an
// injected capacity bug is caught, shrunk small and replayable.
#include "testing/fuzzer.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "workload/trace.hpp"

namespace fbc::testing {
namespace {

TEST(Fuzzer, CleanCampaignReportsNoFailures) {
  FuzzConfig config;
  config.seed = 2026;
  config.iters = 5;
  config.policies = {"lru", "landlord", "optfb"};
  config.out_dir.clear();  // don't write files
  std::ostringstream log;
  const FuzzReport report = run_fuzz(config, log);
  EXPECT_TRUE(report.clean()) << log.str();
  EXPECT_EQ(report.iterations, 5u);
  EXPECT_EQ(report.select_instances, 5u);
  EXPECT_EQ(report.sim_runs, 15u);
}

TEST(Fuzzer, ModeFlagsDisableFamilies) {
  FuzzConfig config;
  config.seed = 3;
  config.iters = 3;
  config.policies = {"lru"};
  config.out_dir.clear();
  config.run_sim = false;
  std::ostringstream log;
  FuzzReport report = run_fuzz(config, log);
  EXPECT_EQ(report.select_instances, 3u);
  EXPECT_EQ(report.sim_runs, 0u);

  config.run_sim = true;
  config.run_select = false;
  report = run_fuzz(config, log);
  EXPECT_EQ(report.select_instances, 0u);
  EXPECT_EQ(report.sim_runs, 3u);
}

TEST(Fuzzer, InjectedBugIsCaughtShrunkAndReplayable) {
  FuzzConfig config;
  config.seed = 1;
  config.iters = 30;
  config.policies = {"underfree:lru"};
  config.out_dir = ::testing::TempDir();
  config.max_failures = 1;
  std::ostringstream log;
  const FuzzReport report = run_fuzz(config, log);
  ASSERT_EQ(report.failures.size(), 1u) << log.str();

  const FuzzFailure& failure = report.failures.front();
  EXPECT_EQ(failure.violation.oracle, "sim.policy-contract");
  EXPECT_EQ(failure.violation.subject, "underfree:lru");
  // The acceptance bar: a capacity bug shrinks to a tiny reproducer.
  EXPECT_LE(failure.shrunk_jobs, 5u);
  ASSERT_FALSE(failure.reproducer_path.empty());

  // The written reproducer is self-contained and still fails on replay.
  const Trace reproducer = load_trace(failure.reproducer_path);
  const std::vector<Violation> replayed = replay_reproducer(reproducer);
  ASSERT_FALSE(replayed.empty());
  EXPECT_TRUE(contains_failure(replayed, failure.violation));
}

TEST(Fuzzer, ReplayRejectsTracesWithoutProvenance) {
  Trace trace{FileCatalog({1}), {Request{{0}}}, {}, {}, {}};
  EXPECT_THROW((void)replay_reproducer(trace), std::runtime_error);
  trace.set_meta("kind", "nonsense");
  EXPECT_THROW((void)replay_reproducer(trace), std::runtime_error);
}

TEST(Fuzzer, ReplayRejectsMetaNumbersThatDoNotParseWhole) {
  // A corrupted reproducer must fail to load: std::stoull once read
  // "capacity -1" as 2^64-1 and "capacity 378abc" as 378, and both
  // replayed as "no violations".
  std::ifstream in(std::string(FBC_FIXTURE_DIR) + "/hard-select-7-692.trace");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const std::string clean = text.str();
  const std::string line = "\ncapacity 378\n";
  const std::size_t at = clean.find(line);
  ASSERT_NE(at, std::string::npos);
  for (const std::string bad : {"-1", "378abc"}) {
    std::string copy = clean;
    copy.replace(at, line.size(), "\ncapacity " + bad + "\n");
    std::istringstream is(copy);
    const Trace trace = read_trace(is);
    try {
      (void)replay_reproducer(trace);
      ADD_FAILURE() << "capacity " << bad << " replayed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'capacity'"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace fbc::testing
