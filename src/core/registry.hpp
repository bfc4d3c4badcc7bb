// Policy registry: creates any replacement policy by its string name.
// The single entry point bench harnesses, examples and user code use to
// instantiate policies uniformly.
//
// The registered names, each with a one-line description, are the rows
// of kPolicies in registry.cpp, in display order.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/policy.hpp"
#include "core/opt_file_bundle.hpp"

namespace fbc {

/// Everything a policy constructor might need.
struct PolicyContext {
  /// Required for optfb* policies.
  const FileCatalog* catalog = nullptr;
  /// Seed for stochastic policies (random).
  std::uint64_t seed = 0x5eedULL;
  /// Future job stream; required for lookahead.
  std::span<const Request> jobs = {};
  /// Window length for optfb-window.
  std::uint64_t history_window_jobs = 1000;
  /// Queue-scheduling aging factor for optfb* policies (0 = pure value
  /// order; see OptFileBundleConfig::aging_factor).
  double aging_factor = 0.0;
  /// Bounded-memory history cap for optfb* policies (0 = unbounded).
  std::size_t history_max_entries = 0;
  /// Selection engine for optfb* policies (Reference until the
  /// incremental engine has soaked; see core/incremental_select.hpp).
  SelectEngine select_engine = SelectEngine::Reference;
  /// adaptive: one request in `duel_sample_period` joins the set-dueling
  /// sample replayed through the shadow caches and the OPT oracle.
  std::size_t duel_sample_period = 8;
  /// adaptive: leader re-election interval, in arrivals.
  std::size_t duel_phase_jobs = 64;
};

/// Creates the policy registered under `name`.
/// Throws std::invalid_argument for unknown names or missing context.
[[nodiscard]] PolicyPtr make_policy(const std::string& name,
                                    const PolicyContext& context);

/// All registered policy names, in display order.
[[nodiscard]] std::vector<std::string> policy_names();

}  // namespace fbc
