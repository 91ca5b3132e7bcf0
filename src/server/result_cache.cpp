#include "server/result_cache.hpp"

#include "common/rng.hpp"

namespace vppstudy::server {

std::uint64_t ResultCache::config_digest(const core::SweepConfig& sweep,
                                         std::uint64_t seed) {
  const std::uint64_t nominal_mv =
      sweep.vpp_levels.empty() ? 0
                               : core::vpp_millivolts(sweep.vpp_levels.front());
  return core::fold_sweep_fields(
      common::hash_key({0x76707064ULL,  // "vppd" domain separator
                        seed, nominal_mv}),
      sweep);
}

std::uint64_t ResultCache::cell_key(std::uint64_t digest, core::JobPhase phase,
                                    std::uint64_t module_seed,
                                    std::uint64_t vpp_mv, std::uint32_t row) {
  return common::hash_key({digest, static_cast<std::uint64_t>(phase),
                           module_seed, vpp_mv, row});
}

std::uint64_t ResultCache::point_key(std::uint64_t digest,
                                     core::JobPhase phase,
                                     std::uint64_t module_seed,
                                     const core::AxisPoint& point,
                                     std::uint32_t row) {
  const std::uint64_t vpp_mv = core::vpp_millivolts(point.vpp_v);
  if (point.baseline()) {
    return cell_key(digest, phase, module_seed, vpp_mv, row);
  }
  std::uint64_t key = common::hash_key(
      {digest, static_cast<std::uint64_t>(phase), module_seed, vpp_mv, row,
       static_cast<std::uint64_t>(
           core::temperature_millidegrees(point.temperature_c)),
       point.hammer_count,
       static_cast<std::uint64_t>(
           core::act_to_act_picoseconds(point.act_to_act_ns))});
  // The pattern axis folds in only when present: hash_key is a left fold,
  // so every pre-pattern key -- and therefore every cached result of a
  // pattern-free campaign -- is untouched by the axis existing.
  if (point.pattern_hash != 0) {
    key = common::hash_accumulate(key, point.pattern_hash);
  }
  return key;
}

std::uint64_t ResultCache::wcdp_key(std::uint64_t digest,
                                    std::uint64_t module_seed) {
  return common::hash_key(
      {digest, static_cast<std::uint64_t>(core::JobPhase::kWcdp), module_seed});
}

bool ResultCache::lookup(std::uint64_t key, CellValue* out) const {
  std::lock_guard lock(mu_);
  const auto it = cells_.find(key);
  if (it == cells_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.pos);
  *out = it->second.value;
  return true;
}

void ResultCache::insert(std::uint64_t key, CellValue value) {
  std::lock_guard lock(mu_);
  const auto it = cells_.find(key);
  if (it != cells_.end()) {
    it->second.value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return;
  }
  lru_.push_front(key);
  cells_.emplace(key, CellEntry{std::move(value), lru_.begin()});
  evict_over_cap();
}

void ResultCache::evict_over_cap() {
  if (max_cells_ == 0) return;
  while (cells_.size() > max_cells_) {
    cells_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

bool ResultCache::lookup_wcdp(std::uint64_t key,
                              std::vector<dram::DataPattern>* out) const {
  std::lock_guard lock(mu_);
  const auto it = wcdp_.find(key);
  if (it == wcdp_.end()) return false;
  *out = it->second;
  return true;
}

void ResultCache::insert_wcdp(std::uint64_t key,
                              std::vector<dram::DataPattern> wcdp) {
  std::lock_guard lock(mu_);
  wcdp_.insert_or_assign(key, std::move(wcdp));
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.cells = cells_.size();
  s.wcdp_preps = wcdp_.size();
  s.evictions = evictions_;
  s.max_cells = max_cells_;
  return s;
}

}  // namespace vppstudy::server
