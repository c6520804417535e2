#ifndef RDFSPARK_SYSTEMS_PLAN_ANALYZE_H_
#define RDFSPARK_SYSTEMS_PLAN_ANALYZE_H_

#include <optional>
#include <string>

#include "spark/rdd.h"
#include "systems/plan/plan.h"

namespace rdfspark::systems::plan {

/// Renders a plan tree that was executed with actuals collection
/// (PlanExecutor(sc, /*collect_actuals=*/true)) as EXPLAIN ANALYZE text.
/// Per-node format, indented two spaces per level like Explain():
///
///   <Kind> [<access> <detail>] (est=<n>|? act=<rows>|? err=<r>x|-)
///       cmp=<n> shuf=<records>/<bytes>B rmt=<bytes>B bcast=<bytes>B
///       reads=L<n>/R<n> tasks=<n> busy=<ms>ms
///
/// (one line per node; wrapped here for readability). `err` is the
/// estimate-error ratio actual/estimated — >1 under-, <1 over-estimate —
/// printed with two decimals, "inf" when est=0 but rows materialized, and
/// "-" when either side is unknown. Counter groups are omitted when zero,
/// so cheap nodes stay one short line. Nodes never executed (descriptive
/// inner nodes under a monolithic root still get charged-through scopes,
/// but un-analyzed trees entirely) render est-only, matching Explain.
///
/// All numbers are bit-identical between executor_threads=1 and N: they
/// are sums over the same multiset of charges (see OpStats).
std::string ExplainAnalyze(const PlanNode& root);

/// Max over all analyzed nodes of the *symmetric* estimate-error factor
/// max(actual/estimate, estimate/actual) — 1.0 is a perfect estimate,
/// larger is worse in either direction. Nodes without an estimate or
/// without known actuals are skipped; a zero on exactly one side counts as
/// the other side's magnitude (an estimate of 0 that materialized rows is
/// as wrong as the row count is large). Returns 0 when no node qualifies.
double MaxEstimateErrorFactor(const PlanNode& root);

/// Estimated vs. observed output cardinality of one leaf operator of an
/// analyzed plan, for the slow-query audit's stats store.
struct LeafActual {
  std::string detail;     ///< Scan annotation: "[<access> <detail>]" text.
  std::string predicate;  ///< Best-effort predicate: the first <IRI> in the
                          ///< detail, else its first token, else "?".
  uint64_t est_rows = 0;  ///< Planner estimate (0 when kNoEstimate).
  uint64_t actual_rows = 0;
};

/// Walks an analyzed plan and returns one LeafActual per leaf node with
/// known actuals, in plan (pre-)order.
std::vector<LeafActual> CollectLeafActuals(const PlanNode& root);

/// Registers a row counter for payloads of type spark::Rdd<T>: rows out is
/// the sum of the RDD's cached partition sizes (every partition an
/// analyzed run needed is cached by the time counting happens; reading
/// sizes charges nothing). Also registers the matching lineage probe, so
/// any payload type the analyzer can count is one the lineage analyzer can
/// snapshot. Engines whose payload element types are translation-unit-local
/// instantiate this in their own TU:
///
///   namespace { const plan::RddPayloadRowCounterRegistration<MyRow> reg; }
///
/// Common payload types (IdRow rows, keyed rows, DataFrame, driver-side
/// vectors) are registered centrally in systems/engine.cc.
template <typename T>
class RddPayloadRowCounterRegistration {
 public:
  RddPayloadRowCounterRegistration() {
    RegisterPayloadRowCounter(
        [](const PlanPayload& payload) -> std::optional<uint64_t> {
          const auto* rdd = std::any_cast<spark::Rdd<T>>(&payload);
          if (rdd == nullptr || !rdd->valid()) return std::nullopt;
          return rdd->node()->CachedRecords();
        });
    RegisterPayloadLineageProbe(
        [](const PlanPayload& payload) -> std::shared_ptr<spark::RddNodeBase> {
          const auto* rdd = std::any_cast<spark::Rdd<T>>(&payload);
          if (rdd == nullptr || !rdd->valid()) return nullptr;
          return rdd->node();
        });
  }
};

/// Batch-payload variant: partitions hold container elements (IdTable
/// batches, keyed batches, per-vertex tables) whose row count is not the
/// element count. `rows_of(element)` supplies rows-per-element; only cached
/// partitions are read, so counting still charges nothing.
template <typename T, typename RowsFn>
class BatchPayloadRowCounterRegistration {
 public:
  explicit BatchPayloadRowCounterRegistration(RowsFn rows_of) {
    RegisterPayloadRowCounter(
        [rows_of](const PlanPayload& payload) -> std::optional<uint64_t> {
          const auto* rdd = std::any_cast<spark::Rdd<T>>(&payload);
          if (rdd == nullptr || !rdd->valid()) return std::nullopt;
          auto node = rdd->node();
          uint64_t total = 0;
          for (int p = 0; p < node->num_partitions(); ++p) {
            if (!node->IsPartitionCached(p)) continue;
            auto part = node->GetPartition(p);
            for (const T& x : *part) total += rows_of(x);
          }
          return total;
        });
    RegisterPayloadLineageProbe(
        [](const PlanPayload& payload) -> std::shared_ptr<spark::RddNodeBase> {
          const auto* rdd = std::any_cast<spark::Rdd<T>>(&payload);
          if (rdd == nullptr || !rdd->valid()) return nullptr;
          return rdd->node();
        });
  }
};

}  // namespace rdfspark::systems::plan

#endif  // RDFSPARK_SYSTEMS_PLAN_ANALYZE_H_
