// OptFileBundle: the paper's cache replacement policy (Algorithm 2).
//
// On each arriving request r_new the policy:
//   1. records r_new in the request history L(R);
//   2. when the missing files of r_new do not fit, reserves space for the
//      whole bundle F(r_new) and runs OptCacheSelect over the history
//      candidates with budget s(C) - s(F(r_new)), treating F(r_new) as
//      free (those files stay regardless);
//   3. evicts every resident file that is neither in the selected optimal
//      set F(Opt) nor in F(r_new).
//
// The history truncation mode and the greedy variant are configurable; the
// defaults (CacheResident + Resort) are the combination the paper settles
// on for its main experiments (§5.3, Fig. 5 and the "Note" in §3).
//
// Queue scheduling: choose_next() returns the queued request of highest
// adjusted relative value v'(r), implementing the §5.3 batching study
// (Fig. 9). The occurrence being scheduled is itself counted with weight 1
// on top of the historical value, so never-seen requests rank by
// 1 / adjusted bundle size instead of all tying at zero.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/policy.hpp"
#include "core/incremental_select.hpp"
#include "core/opt_cache_select.hpp"
#include "core/request_history.hpp"

namespace fbc {

/// How the value v(r) of a request accrues per occurrence. The paper uses
/// a plain counter ("a counter incremented by 1 each time this request
/// appeared") but notes v(r) "can also reflect request priority or some
/// other measure of importance"; BytesWeighted credits each occurrence
/// with the bundle's size in MiB, which steers the selection toward
/// minimizing byte misses instead of request misses.
enum class ValueModel { Popularity, BytesWeighted };

/// Configuration of the OptFileBundle policy.
struct OptFileBundleConfig {
  RequestHistoryConfig history = {};
  SelectVariant variant = SelectVariant::Resort;
  ValueModel value_model = ValueModel::Popularity;
  /// Load F(Opt) \ F(C) speculatively (Algorithm 2 step 3 verbatim). Only
  /// meaningful under Full/Window history, where the selection can pick
  /// requests whose files are not resident; with CacheResident candidates
  /// F(Opt) is always resident and this flag is a no-op.
  bool prefetch_selected = false;
  /// Queue-scheduling aging: a queued request's score is
  /// v'(r) * (1 + aging_factor * age), where age counts services it has
  /// waited through. 0 = pure value order (can lock out rare requests in
  /// the sliding queue, paper §5.2); > 0 bounds waiting times.
  double aging_factor = 0.0;
  /// Which selection engine runs the replacement decision. Both produce
  /// identical results (see core/incremental_select.hpp); Reference is the
  /// default until the incremental engine has soaked in production.
  SelectEngine engine = SelectEngine::Reference;
};

/// The paper's bundle-aware replacement policy (see file comment).
class OptFileBundlePolicy : public ReplacementPolicy {
 public:
  /// The catalog must outlive the policy.
  explicit OptFileBundlePolicy(const FileCatalog& catalog,
                               OptFileBundleConfig config = {});

  [[nodiscard]] std::string name() const override;

  void on_job_arrival(const Request& request, const DiskCache& cache) override;

  [[nodiscard]] std::vector<FileId> select_victims(
      const Request& request, Bytes bytes_needed,
      const DiskCache& cache) override;

  void on_files_loaded(const Request& request, std::span<const FileId> loaded,
                       const DiskCache& cache) override;

  void on_file_evicted(FileId id) override;

  void on_prefetched(std::span<const FileId> loaded,
                     const DiskCache& cache) override;

  [[nodiscard]] std::vector<FileId> prefetch(const Request& request,
                                             const DiskCache& cache) override;

  [[nodiscard]] const SelectionCost* selection_cost() const override {
    return &cost_;
  }

  [[nodiscard]] std::size_t choose_next(std::span<const Request> queue,
                                        const DiskCache& cache) override;

  [[nodiscard]] std::size_t choose_next(std::span<const Request> queue,
                                        std::span<const double> ages,
                                        const DiskCache& cache) override;

  void reset() override;

  /// The underlying history (introspection for tests and tools).
  [[nodiscard]] const RequestHistory& history() const noexcept {
    return history_;
  }

  /// Number of candidate requests considered by the last replacement
  /// decision (the paper's computational-cost discussion, §5.3).
  [[nodiscard]] std::size_t last_candidate_count() const noexcept {
    return last_candidates_;
  }

  /// Full outcome of the last replacement decision (differential testing:
  /// the engine-diff oracle compares these field by field).
  [[nodiscard]] const SelectionResult& last_selection() const noexcept {
    return last_selection_;
  }

  /// The configured selection engine.
  [[nodiscard]] SelectEngine engine() const noexcept { return config_.engine; }

 private:
  const FileCatalog* catalog_;
  OptFileBundleConfig config_;
  RequestHistory history_;
  std::unique_ptr<IncrementalSelector> incremental_;
  SelectionCost cost_;
  SelectionResult last_selection_;
  std::size_t last_candidates_ = 0;
  std::vector<FileId> pending_prefetch_;
  /// select_victims scratch, reused across decisions: the sorted reserved
  /// set (incoming bundle plus files pinned elsewhere), and per FileId the
  /// epoch of the last decision that kept it.
  std::vector<FileId> reserved_;
  std::vector<std::uint32_t> kept_epoch_;
  std::uint32_t epoch_ = 0;
};

}  // namespace fbc
