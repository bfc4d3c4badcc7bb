#include "core/registry.hpp"

#include <memory>
#include <stdexcept>

#include "core/optgen.hpp"
#include "policies/adaptive.hpp"
#include "policies/dist_online.hpp"
#include "policies/fifo.hpp"
#include "policies/gds.hpp"
#include "policies/gdsf.hpp"
#include "policies/landlord.hpp"
#include "policies/lfu.hpp"
#include "policies/lookahead.hpp"
#include "policies/lru.hpp"
#include "policies/lru_k.hpp"
#include "policies/random_evict.hpp"

namespace fbc {
namespace {

const FileCatalog& require_catalog(const PolicyContext& context,
                                   const std::string& name) {
  if (context.catalog == nullptr)
    throw std::invalid_argument("make_policy(" + name +
                                "): context.catalog is required");
  return *context.catalog;
}

PolicyPtr make_optfb(const PolicyContext& context, const std::string& name,
                     OptFileBundleConfig config) {
  config.aging_factor = context.aging_factor;
  config.history.max_entries = context.history_max_entries;
  config.engine = context.select_engine;
  return std::make_unique<OptFileBundlePolicy>(require_catalog(context, name),
                                               config);
}

/// A policy built from constants alone: P(Args...).
template <class P, auto... Args>
PolicyPtr plain(const std::string& /*name*/, const PolicyContext& /*context*/) {
  return std::make_unique<P>(Args...);
}

PolicyPtr make_adaptive(const std::string& name, const PolicyContext& context) {
  const FileCatalog& catalog = require_catalog(context, name);
  std::vector<AdaptiveContender> contenders;
  for (const char* contender : {"optfb", "landlord", "gdsf"}) {
    contenders.push_back(AdaptiveContender{contender,
                                           make_policy(contender, context),
                                           make_policy(contender, context)});
  }
  AdaptiveConfig config;
  config.seed = context.seed;
  config.sample_period = context.duel_sample_period;
  config.phase_jobs = context.duel_phase_jobs;
  // The training signal: a BundleOPTgen oracle fed the same sampled
  // subsequence the shadow caches replay, created lazily once the real
  // cache capacity is known.
  AdaptivePolicy::OracleFactory oracle = [&catalog](Bytes capacity) {
    auto gen = std::make_shared<BundleOPTgen>(
        catalog, OptgenConfig{capacity, /*window_quanta=*/4096});
    return [gen](const Request& request) {
      return gen->observe(request).opt_hit;
    };
  };
  return std::make_unique<AdaptivePolicy>(catalog, config,
                                          std::move(contenders),
                                          std::move(oracle));
}

struct PolicyEntry {
  const char* name;
  PolicyPtr (*make)(const std::string& name, const PolicyContext& context);
};

/// Every registered policy, in display order: make_policy looks names up
/// here and policy_names() lists them.
constexpr PolicyEntry kPolicies[] = {
    // OptFileBundle, CacheResident history, Resort greedy (the paper's
    // recommended configuration).
    {"optfb",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name, {});
     }},
    // ... with the Basic (single-sort) greedy.
    {"optfb-basic",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name, {.variant = SelectVariant::Basic});
     }},
    // ... with the 1-seeded greedy.
    {"optfb-seeded1",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name, {.variant = SelectVariant::Seeded1});
     }},
    // ... with the 2-seeded greedy (improved bound, slow).
    {"optfb-seeded2",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name, {.variant = SelectVariant::Seeded2});
     }},
    // ... with untruncated history (+ step-3 prefetching).
    {"optfb-full",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name,
                         {.history = {.mode = HistoryMode::Full},
                          .prefetch_selected = true});
     }},
    // ... with sliding-window history.
    {"optfb-window",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name,
                         {.history = {.mode = HistoryMode::Window,
                                      .window_jobs =
                                          context.history_window_jobs},
                          .prefetch_selected = true});
     }},
    // ... with byte-weighted request values (targets byte misses instead
    // of request misses).
    {"optfb-bytes",
     [](const auto& name, const auto& context) {
       return make_optfb(context, name,
                         {.value_model = ValueModel::BytesWeighted});
     }},
    // Bundle-adapted Landlord (paper Algorithm 3).
    {"landlord", plain<LandlordPolicy, LandlordPolicy::CreditModel::Uniform>},
    // Landlord with size-proportional credits.
    {"landlord-size",
     plain<LandlordPolicy, LandlordPolicy::CreditModel::ProportionalToSize>},
    // Distributed online rule (Qin & Etesami): accumulating equal
    // bundle-cost credit shares, composable across cluster shards.
    {"dist-online",
     [](const auto& name, const auto& context) -> PolicyPtr {
       return std::make_unique<DistOnlinePolicy>(
           require_catalog(context, name));
     }},
    // Classic baselines adapted to bundles; LRU-K (O'Neil et al.) ranks
    // by K-th-reference recency.
    {"lru", plain<LruPolicy>},
    {"lru-2", plain<LruKPolicy, std::size_t{2}>},
    {"lru-3", plain<LruKPolicy, std::size_t{3}>},
    {"lfu", plain<LfuPolicy>},
    {"fifo", plain<FifoPolicy>},
    // GreedyDual-Size cost variants.
    {"gds-unit", plain<GdsPolicy, GdsCost::Unit>},
    {"gds-size", plain<GdsPolicy, GdsCost::Size>},
    {"gds-fetch", plain<GdsPolicy, GdsCost::FetchTime>},
    // GreedyDual-Size-Frequency (Cherkasova).
    {"gdsf", plain<GdsfPolicy, true>},
    {"gdsf-unit", plain<GdsfPolicy, false>},
    // Uniform random eviction.
    {"random",
     [](const auto& /*name*/, const auto& context) -> PolicyPtr {
       return std::make_unique<RandomPolicy>(context.seed);
     }},
    // Clairvoyant farthest-next-use (needs the job stream).
    {"lookahead",
     [](const auto& /*name*/, const auto& context) -> PolicyPtr {
       if (context.jobs.empty())
         throw std::invalid_argument(
             "make_policy(lookahead): context.jobs is required");
       return std::make_unique<LookaheadPolicy>(context.jobs);
     }},
    // Set-dueling meta-policy: OptFileBundle vs Landlord vs GDSF on
    // sampled request subsets, scored against the BundleOPTgen oracle,
    // following the per-phase winner.
    {"adaptive", make_adaptive},
};

}  // namespace

PolicyPtr make_policy(const std::string& name, const PolicyContext& context) {
  for (const PolicyEntry& entry : kPolicies)
    if (name == entry.name) return entry.make(name, context);
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const PolicyEntry& entry : kPolicies) names.emplace_back(entry.name);
  return names;
}

}  // namespace fbc
