// Cluster-wide snapshot aggregation: exact MetricsSnapshot merges
// (field-wise ServiceStats sums; CounterRegistry::merge and
// Histogram::merge are both exact and associative, so the merged
// snapshot is what one giant server would have recorded).
//
// Used by the ClusterRouter (metrics() over its shards) and by fbcctl
// --cluster, which merges snapshots client-side from N daemons.
#pragma once

#include <span>

#include "service/protocol.hpp"

namespace fbc::cluster {

/// Exact merge of per-shard observability snapshots: stats are summed
/// field-wise, counters added name-wise, histograms merged bucket-wise.
/// Output name lists stay sorted. A scattered acquire counts once per
/// touched shard in the per-shard `requests`/`leases_granted` fields, so
/// cluster sums are sub-request totals, not job totals -- the router's
/// own grid.* counters carry the job-level view.
[[nodiscard]] service::MetricsSnapshot merge_metrics(
    std::span<const service::MetricsSnapshot> shards);

}  // namespace fbc::cluster
