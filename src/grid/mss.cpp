#include "grid/mss.hpp"

#include <stdexcept>

#include "util/parse.hpp"
#include "util/rng.hpp"

namespace fbc {

std::vector<StorageTier> default_tiers() {
  return {
      StorageTier{"disk-pool", /*latency_s=*/0.05,
                  /*bandwidth_bps=*/400.0 * 1024 * 1024},
      StorageTier{"local-tape", /*latency_s=*/8.0,
                  /*bandwidth_bps=*/120.0 * 1024 * 1024},
      StorageTier{"remote-mss", /*latency_s=*/2.0,
                  /*bandwidth_bps=*/25.0 * 1024 * 1024},
  };
}

MassStorageSystem::MassStorageSystem(std::vector<StorageTier> tiers,
                                     const FileCatalog& catalog)
    : tiers_(std::move(tiers)), catalog_(&catalog) {
  if (tiers_.empty())
    throw std::invalid_argument("MassStorageSystem: need at least one tier");
  placement_.assign(catalog.count(), 0);
}

void MassStorageSystem::place_file(FileId id, std::size_t tier_index) {
  if (!catalog_->valid(id))
    throw std::invalid_argument("MassStorageSystem::place_file: bad file id");
  if (tier_index >= tiers_.size())
    throw std::invalid_argument("MassStorageSystem::place_file: bad tier");
  if (placement_.size() <= id) placement_.resize(id + 1, 0);
  placement_[id] = static_cast<std::uint32_t>(tier_index);
}

std::size_t MassStorageSystem::tier_of(FileId id) const {
  if (id >= placement_.size())
    throw std::invalid_argument("MassStorageSystem::tier_of: bad file id");
  return placement_[id];
}

double MassStorageSystem::fetch_seconds(FileId id) const {
  return tiers_[tier_of(id)].fetch_seconds(catalog_->size_of(id));
}

void place_tier_mix(MassStorageSystem& mss, std::string_view mix,
                    std::uint64_t seed) {
  const auto comma = mix.find(',');
  const std::optional<double> tape = parse_whole<double>(mix.substr(0, comma));
  const std::optional<double> remote =
      comma == std::string_view::npos
          ? std::nullopt
          : parse_whole<double>(mix.substr(comma + 1));
  if (!tape || !remote || !(*tape >= 0.0 && *tape <= 1.0) ||
      !(*remote >= 0.0 && *remote <= 1.0) || *tape + *remote > 1.0)
    throw std::invalid_argument("--tier-mix needs 'tape,remote' fractions "
                                "in [0, 1] summing to at most 1: " +
                                std::string(mix));
  Rng placement_rng(seed + 17);
  for (FileId id = 0; id < mss.catalog().count(); ++id) {
    const double roll = placement_rng.uniform_double();
    if (roll < *tape) {
      mss.place_file(id, 1);
    } else if (roll < *tape + *remote) {
      mss.place_file(id, 2);
    }
  }
}

}  // namespace fbc
