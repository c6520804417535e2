#include "serving/plan_cache.h"

#include "spark/hb.h"

namespace rdfspark::serving {

namespace hb = spark::hb;

int64_t PlanCache::HbId() const { return hb::StableId(&hb_id_); }

std::string PlanCache::MakeKey(const std::string& engine,
                               const std::string& normalized_query,
                               uint64_t epoch) {
  // '\x1f' (unit separator) cannot occur in engine names or serialized
  // SPARQL, so the concatenation is injective.
  return engine + '\x1f' + std::to_string(epoch) + '\x1f' + normalized_query;
}

std::shared_ptr<const systems::plan::PlanNode> PlanCache::Get(
    const std::string& engine, const std::string& normalized_query,
    uint64_t epoch) {
  std::string key = MakeKey(engine, normalized_query, epoch);
  hb::TrackedLock lock(mu_);
  // Writes even on the lookup path: Get mutates the LRU list and counters.
  hb::RecordAccess(hb::PlanCacheObject(HbId()), hb::Access::kWrite,
                   "PlanCache::Get");
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // Refresh recency.
  return it->second->plan;
}

void PlanCache::Put(const std::string& engine,
                    const std::string& normalized_query, uint64_t epoch,
                    std::shared_ptr<const systems::plan::PlanNode> plan) {
  std::string key = MakeKey(engine, normalized_query, epoch);
  hb::TrackedLock lock(mu_);
  hb::RecordAccess(hb::PlanCacheObject(HbId()), hb::Access::kWrite,
                   "PlanCache::Put");
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Two requests planned the same query concurrently; keep the first
    // insert (both plans are equivalent) and refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{std::move(key), epoch, std::move(plan)});
  index_.emplace(lru_.front().key, lru_.begin());
  // The just-inserted front entry is never evicted.
  while (lru_.size() > 1 && lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

void PlanCache::RecordBypass() {
  hb::TrackedLock lock(mu_);
  hb::RecordAccess(hb::PlanCacheObject(HbId()), hb::Access::kWrite,
                   "PlanCache::RecordBypass");
  ++stats_.bypasses;
}

void PlanCache::InvalidateExcept(uint64_t epoch) {
  hb::TrackedLock lock(mu_);
  hb::RecordAccess(hb::PlanCacheObject(HbId()), hb::Access::kWrite,
                   "PlanCache::InvalidateExcept");
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->epoch != epoch) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
  stats_.entries = lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  hb::TrackedLock lock(mu_);
  hb::RecordAccess(hb::PlanCacheObject(HbId()), hb::Access::kRead,
                   "PlanCache::stats");
  PlanCacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

}  // namespace rdfspark::serving
