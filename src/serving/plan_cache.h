#ifndef RDFSPARK_SERVING_PLAN_CACHE_H_
#define RDFSPARK_SERVING_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "systems/plan/plan.h"

namespace rdfspark::serving {

/// Counters of one PlanCache; a consistent snapshot taken under the cache
/// lock. hits + misses + bypasses = cacheable-path lookups issued.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Requests that could not use the cache at all: engines whose plans are
  /// single-use (S2X), or queries outside the cacheable fragment (groups
  /// with FILTER/OPTIONAL/UNION, aggregates, CONSTRUCT/DESCRIBE).
  uint64_t bypasses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  ///< Entries dropped by epoch change.
  uint64_t entries = 0;        ///< Current resident entries.
};

/// Shared cache of verified physical plans, keyed by
/// (engine variant, normalized query text, dataset epoch).
///
/// Normalization is sparql::ToSparql over the parsed query, so two texts
/// differing only in whitespace/formatting share an entry. The dataset
/// epoch is part of the key *and* checked on insert: after AttachDataset
/// bumps the server epoch, every old entry both misses (key mismatch) and
/// is actively dropped (InvalidateExcept), so a reload can never serve a
/// plan built against the previous dataset's dictionary ids.
///
/// Entries are shared_ptr<const PlanNode>: execution only reads the plan
/// tree (the executor mutates nodes only in collect_actuals mode, which
/// the serving path never uses), so one cached plan may be executed by any
/// number of concurrent requests. Engines whose plans are single-use
/// (ReusablePlans() == false) must never be inserted — callers route them
/// through RecordBypass instead.
///
/// Thread-safe; eviction is LRU over a fixed entry capacity — the same
/// model the telemetry sink's logical cache replays.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan or null (counting a hit / miss).
  std::shared_ptr<const systems::plan::PlanNode> Get(
      const std::string& engine, const std::string& normalized_query,
      uint64_t epoch);

  /// Inserts (refreshing LRU position if the key raced another insert).
  void Put(const std::string& engine, const std::string& normalized_query,
           uint64_t epoch,
           std::shared_ptr<const systems::plan::PlanNode> plan);

  /// Counts a request that bypassed the cache entirely.
  void RecordBypass();

  /// Drops every entry whose epoch differs from `epoch` (dataset reload).
  void InvalidateExcept(uint64_t epoch);

  PlanCacheStats stats() const;

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    uint64_t epoch;
    std::shared_ptr<const systems::plan::PlanNode> plan;
  };

  static std::string MakeKey(const std::string& engine,
                             const std::string& normalized_query,
                             uint64_t epoch);

  /// Stable Tier C identity (lazily assigned on first instrumented access).
  int64_t HbId() const;

  size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
  mutable std::atomic<int64_t> hb_id_{0};
};

}  // namespace rdfspark::serving

#endif  // RDFSPARK_SERVING_PLAN_CACHE_H_
