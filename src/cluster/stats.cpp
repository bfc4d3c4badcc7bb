#include "cluster/stats.hpp"

#include <map>

#include "obs/counter.hpp"
#include "obs/histogram.hpp"

namespace fbc::cluster {

namespace {

void merge_stats(const service::ServiceStats& in, service::ServiceStats* out) {
  for (const service::StatsField& field : service::kServiceStatsFields)
    out->*field.member += in.*field.member;
}

}  // namespace

service::MetricsSnapshot merge_metrics(
    std::span<const service::MetricsSnapshot> shards) {
  service::MetricsSnapshot out;
  obs::CounterRegistry counters;
  std::map<std::string, obs::Histogram> histograms;
  for (const service::MetricsSnapshot& s : shards) {
    merge_stats(s.stats, &out.stats);
    for (const obs::CounterSample& c : s.counters)
      counters.add(c.first, c.second);
    for (const service::NamedHistogram& h : s.histograms)
      histograms[h.name].merge(h.hist);
  }
  out.counters = counters.snapshot();
  out.histograms.reserve(histograms.size());
  for (auto& [name, hist] : histograms)
    out.histograms.push_back({name, std::move(hist)});
  return out;
}

}  // namespace fbc::cluster
