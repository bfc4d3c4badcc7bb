// fbcd: the bundle-serving daemon.
//
// Generates a deterministic scenario workload, builds the MSS + cache +
// policy stack, and serves bundle leases over the fbcd wire protocol on
// loopback TCP:
//
//   fbcd --scenario=henp --cache=2GiB --policy=optfb --port=7401
//   fbcd --port=0            # ephemeral port, printed on stdout
//
// Drive it with fbcctl (single-shot) or fbcload (load generator). The
// daemon runs until SIGINT/SIGTERM.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>

#include "serving_common.hpp"
#include "service/daemon.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

using namespace fbc;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fbcd", "Serve bundle leases over the fbcd wire protocol");
  tools::add_service_options(cli);
  tools::add_scenario_options(cli);
  cli.add_option("port", "TCP port on 127.0.0.1 (0 = ephemeral)", "7401");
  cli.add_option("workers",
                 "threads that take turns running the event loop; bounds "
                 "calls parked in a wait, not open connections",
                 "8");

  try {
    cli.parse(argc, argv);
    const std::uint16_t port = parse_port(cli.get_string("port"), "--port");
    const service::ServiceConfig config = tools::service_config_from_cli(cli);
    const Workload workload =
        tools::build_scenario_workload(cli, config.cache_bytes);
    MassStorageSystem mss(default_tiers(), workload.catalog);
    place_tier_mix(mss, cli.get_string("tier-mix"), cli.get_u64("wseed"));

    service::BundleServer server(config, mss);
    service::BundleDaemon daemon(server, port, cli.get_u64("workers"));
    // Parseable startup line; fbcload's --inline-free remote mode and the
    // CI smoke script scrape the port from it.
    std::cout << "fbcd: listening on 127.0.0.1:" << daemon.port()
              << " scenario=" << cli.get_string("scenario")
              << " policy=" << config.policy
              << " cache=" << format_bytes(config.cache_bytes) << std::endl;

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    daemon.stop();
    const service::ServiceStats stats = server.stats();
    std::cout << "fbcd: served " << stats.requests << " requests ("
              << stats.request_hits << " bundle hits), "
              << daemon.connections_accepted() << " connections, "
              << daemon.leases_reclaimed() << " leases reclaimed\n";
    const std::vector<std::string> violations = server.audit();
    for (const std::string& v : violations)
      std::cerr << "fbcd: AUDIT VIOLATION: " << v << "\n";
    return violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fbcd: error: " << e.what() << "\n";
    return 1;
  }
}
