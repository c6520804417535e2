// Tier D resource-envelope tests: the RS rule triggers on hand-built plan
// shapes, the scan-calibration fold, and the two whole-corpus properties the
// CI footprint gate relies on — soundness (static peak envelope >= bytes a
// profiled execution actually materialized) and byte-identity of the
// analysis across executor-thread counts, for every LUBM corpus query on
// every one of the twelve engine variants.

#include "systems/plan/resource.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "spark/tracing.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/plan/plan.h"

namespace rdfspark::systems::plan {
namespace {

/// Same small dataset as dataflow_lint, so the corpus
/// properties exercise exactly the cells the tool reports on.
rdf::TripleStore LintDataset() {
  rdf::TripleStore store;
  rdf::LubmConfig cfg;
  cfg.num_universities = 1;
  cfg.departments_per_university = 3;
  cfg.professors_per_department = 4;
  cfg.students_per_department = 20;
  cfg.courses_per_department = 5;
  store.AddAll(rdf::GenerateLubm(cfg));
  store.Dedupe();
  return store;
}

spark::ClusterConfig LintCluster(int executor_threads) {
  spark::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = executor_threads;
  return cfg;
}

/// A scan leaf with a sound row cap, binding one variable.
PlanPtr Scan(uint64_t rows, const std::string& var) {
  PlanPtr scan = MakeScan(NodeKind::kPatternScan, AccessPath::kFullScan,
                          "scan " + var, rows, nullptr);
  scan->max_cardinality = rows;
  scan->out_vars = {var};
  return scan;
}

/// A scan leaf the planner could not bound at all (kNoEstimate).
PlanPtr UnboundedScan(const std::string& var) {
  PlanPtr scan = MakeScan(NodeKind::kPatternScan, AccessPath::kFullScan,
                          "scan " + var, kNoEstimate, nullptr);
  scan->out_vars = {var};
  return scan;
}

int CountRule(const std::vector<Diagnostic>& ds, const std::string& rule) {
  int n = 0;
  for (const auto& d : ds) n += d.rule == rule;
  return n;
}

// ------------------------------------------------------------ RS rules

TEST(ResourceRulesTest, Rs001BroadcastReplicaOverExecutorBudget) {
  // Both inputs ~80MB (width 1), so the build side alone exceeds the
  // 64MiB per-executor default budget.
  PlanPtr join =
      MakeBinary(NodeKind::kBroadcastJoin, "bcast", Scan(10'000'000, "x"),
                 Scan(10'000'000, "y"), nullptr);
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS001"), 1);
  EXPECT_TRUE(analysis.bounded);
}

TEST(ResourceRulesTest, Rs001SilentWhenReplicaFits) {
  PlanPtr join = MakeBinary(NodeKind::kBroadcastJoin, "bcast",
                            Scan(100, "x"), Scan(100, "y"), nullptr);
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS001"), 0);
  // The replica term still charges build * num_executors at the join node.
  ASSERT_FALSE(analysis.nodes.empty());
  EXPECT_GT(analysis.nodes.front().working_bytes, 0u);
}

TEST(ResourceRulesTest, Rs002PeakOverClusterBudget) {
  PlanPtr scan = Scan(200, "x");
  ResourceProfile profile;
  profile.cluster_budget_bytes = 1000;  // Scan envelope is 1616B.
  auto analysis = AnalyzeResources(*scan, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS002"), 1);
  EXPECT_TRUE(analysis.bounded);
  EXPECT_GT(analysis.peak_bytes, profile.ClusterBudget());
}

TEST(ResourceRulesTest, Rs002NeverFiresOnUnboundedEnvelopes) {
  // Unbounded plans are RS003's job; RS002 compares *bounded* peaks only,
  // mirroring the serving gate (unbounded envelopes are admitted).
  PlanPtr join =
      MakeBinary(NodeKind::kPartitionedHashJoin, "join",
                 UnboundedScan("x"), Scan(100, "y"), nullptr);
  ResourceProfile profile;
  profile.cluster_budget_bytes = 1;
  auto analysis = AnalyzeResources(*join, profile);
  EXPECT_FALSE(analysis.bounded);
  EXPECT_EQ(CountRule(analysis.findings, "RS002"), 0);
}

TEST(ResourceRulesTest, Rs003UnboundedLeafUnderBlockingOperator) {
  PlanPtr join =
      MakeBinary(NodeKind::kPartitionedHashJoin, "join",
                 UnboundedScan("x"), Scan(100, "y"), nullptr);
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS003"), 1);
  EXPECT_FALSE(analysis.bounded);
  EXPECT_EQ(analysis.peak_bytes, kUnboundedBytes);
}

TEST(ResourceRulesTest, Rs003SilentWithoutBlockingAncestor) {
  // A bare unbounded scan blocks nothing: no working set needs the bound.
  PlanPtr scan = UnboundedScan("x");
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*scan, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS003"), 0);
  EXPECT_FALSE(analysis.bounded);
}

TEST(ResourceRulesTest, Rs005SuperlinearCartesianProduct) {
  // 100 x 100 rows -> 10000-row cross product at width 2: far beyond
  // kSuperlinearFactor times the input bytes.
  PlanPtr cross = MakeBinary(NodeKind::kCartesianProduct, "cross",
                             Scan(100, "x"), Scan(100, "y"), nullptr);
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*cross, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS005"), 1);
}

TEST(ResourceRulesTest, Rs005SilentOnKeyedJoin) {
  // The same inputs through an equi-join stay within fanout headroom.
  PlanPtr join = MakeBinary(NodeKind::kPartitionedHashJoin, "join",
                            Scan(100, "x"), Scan(100, "y"), nullptr);
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  EXPECT_EQ(CountRule(analysis.findings, "RS005"), 0);
  // Fanout headroom: bound is 2 * max(inputs), not the product.
  EXPECT_EQ(analysis.nodes.front().row_bound, 200u);
}

TEST(ResourceRulesTest, Rs006FiresOnUnsoundEnvelope) {
  ObservedFootprint observed;
  observed.output_bytes = 5000;
  observed.nodes_with_actuals = 1;
  auto findings = DriftFindings(/*envelope_output_bytes=*/1000, observed);
  ASSERT_EQ(CountRule(findings, "RS006"), 1);
  EXPECT_NE(findings[0].message.find("no longer sound"), std::string::npos);
}

TEST(ResourceRulesTest, Rs006FiresOnOverConservativeEnvelope) {
  ObservedFootprint observed;
  observed.output_bytes = 100;
  observed.nodes_with_actuals = 1;
  auto findings = DriftFindings(/*envelope_output_bytes=*/2000, observed);
  EXPECT_EQ(CountRule(findings, "RS006"), 1);  // 20x > the 16x bound.
}

TEST(ResourceRulesTest, Rs006SilentWithinBoundOrWithoutActuals) {
  ObservedFootprint observed;
  observed.output_bytes = 100;
  observed.nodes_with_actuals = 1;
  EXPECT_TRUE(DriftFindings(/*envelope_output_bytes=*/1500, observed).empty());
  observed.nodes_with_actuals = 0;
  EXPECT_TRUE(DriftFindings(/*envelope_output_bytes=*/2000, observed).empty());
}

// ----------------------------------------------------- envelope algebra

TEST(ResourceEnvelopeTest, StageFoldRetainsUpstreamOutputs) {
  // join(join(a, b), c): two shuffle barriers -> three stages; the peak
  // stage retains every upstream output plus its own working sets.
  PlanPtr inner = MakeBinary(NodeKind::kPartitionedHashJoin, "inner",
                             Scan(100, "x"), Scan(100, "y"), nullptr);
  PlanPtr outer = MakeBinary(NodeKind::kPartitionedHashJoin, "outer",
                             std::move(inner), Scan(100, "z"), nullptr);
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*outer, profile);
  ASSERT_EQ(analysis.stages.size(), 3u);
  EXPECT_TRUE(analysis.bounded);
  for (size_t s = 1; s < analysis.stages.size(); ++s) {
    EXPECT_GE(analysis.stages[s].live_output_bytes,
              analysis.stages[s - 1].live_output_bytes);
  }
  EXPECT_EQ(analysis.peak_bytes, analysis.stages.back().total_bytes);
}

TEST(ResourceEnvelopeTest, SortAtRootChargesBuffer) {
  ResourceProfile plain;
  ResourceProfile sorted;
  sorted.sort_at_root = true;
  PlanPtr scan1 = Scan(100, "x");
  PlanPtr scan2 = Scan(100, "x");
  auto without = AnalyzeResources(*scan1, plain);
  auto with = AnalyzeResources(*scan2, sorted);
  EXPECT_GT(with.peak_bytes, without.peak_bytes);
  EXPECT_EQ(with.nodes.front().working_bytes,
            without.nodes.front().output_bytes * kSortBufferFactor);
}

TEST(ResourceEnvelopeTest, MaxCardinalityTightensInteriorBound) {
  PlanPtr join = MakeBinary(NodeKind::kPartitionedHashJoin, "join",
                            Scan(100, "x"), Scan(100, "y"), nullptr);
  join->max_cardinality = 7;  // Planner proved a tighter cap.
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  EXPECT_EQ(analysis.nodes.front().row_bound, 7u);
}

// -------------------------------------------------------- calibration

TEST(CalibrateScansTest, SumsLeafEnvelopesAgainstLeafActuals) {
  PlanPtr join = MakeBinary(NodeKind::kPartitionedHashJoin, "join",
                            Scan(100, "x"), Scan(100, "y"), nullptr);
  auto mark = [](const PlanPtr& node, uint64_t rows) {
    auto stats = std::make_shared<spark::OpStats>();
    stats->rows_out = rows;
    stats->rows_known = true;
    node->actuals = std::move(stats);
  };
  mark(join->children[0], 5);
  mark(join->children[1], 9);
  mark(join, 45);  // Interior actuals must NOT enter the sample.

  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  auto calib = CalibrateScans(*join, analysis);
  EXPECT_EQ(calib.leaves, 2);
  // Leaf width is 1 (each binds one variable): 16 + rows * 8.
  EXPECT_EQ(calib.envelope_bytes, 2u * (16 + 100 * 8));
  EXPECT_EQ(calib.observed_bytes, (16 + 5 * 8) + (16 + 9 * 8));
  EXPECT_GE(calib.envelope_bytes, calib.observed_bytes);
}

TEST(CalibrateScansTest, SkipsLeavesWithoutActualsOrBounds) {
  PlanPtr join = MakeBinary(NodeKind::kPartitionedHashJoin, "join",
                            UnboundedScan("x"), Scan(100, "y"), nullptr);
  auto stats = std::make_shared<spark::OpStats>();
  stats->rows_out = 3;
  stats->rows_known = true;
  join->children[0]->actuals = stats;  // Unbounded envelope: skipped.
  // children[1] has a bound but no actuals: skipped too.
  ResourceProfile profile;
  auto analysis = AnalyzeResources(*join, profile);
  auto calib = CalibrateScans(*join, analysis);
  EXPECT_EQ(calib.leaves, 0);
  EXPECT_EQ(calib.envelope_bytes, 0u);
  EXPECT_EQ(calib.observed_bytes, 0u);
}

// ------------------------------------------- whole-corpus properties

/// Soundness: for every engine variant and every LUBM corpus query, a
/// bounded static envelope dominates what a profiled execution actually
/// materialized — the property the CI footprint gate snapshots.
TEST(ResourceCorpusTest, PeakEnvelopeDominatesObservedBytes) {
  rdf::TripleStore store = LintDataset();
  auto corpus = rdf::LubmQueryMix();
  int bounded_cells = 0;
  for (const auto& factory : AllEngineVariantFactories()) {
    spark::SparkContext sc(LintCluster(/*executor_threads=*/2));
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
    for (const auto& [shape, text] : corpus) {
      SCOPED_TRACE(factory.name + " / " + text);
      auto query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      // One analyzed run; the envelope is derived from the same plan tree.
      auto inspected = engine->Inspect(*query, kTierResources);
      ASSERT_TRUE(inspected.ok());
      const ResourceAnalysis& analysis = *inspected->resources;
      auto observed = ObserveFootprint(*inspected->plan);
      if (!analysis.bounded) continue;
      ++bounded_cells;
      EXPECT_GE(analysis.peak_bytes, observed.output_bytes);
      EXPECT_GE(analysis.output_bytes, observed.output_bytes);
      // Scan calibration never exceeds the whole-plan envelope and stays
      // sound per leaf by construction.
      auto calib = CalibrateScans(*inspected->plan, analysis);
      if (calib.leaves > 0) {
        EXPECT_GE(calib.envelope_bytes, calib.observed_bytes);
      }
    }
  }
  // The property must not pass vacuously.
  EXPECT_GT(bounded_cells, 20);
}

/// Determinism: the rendered analysis is byte-identical whether the engine
/// simulates one executor thread or eight.
TEST(ResourceCorpusTest, EnvelopeByteIdenticalAcrossExecutorThreads) {
  rdf::TripleStore store = LintDataset();
  auto corpus = rdf::LubmQueryMix();
  for (const auto& factory : AllEngineVariantFactories()) {
    spark::SparkContext sc1(LintCluster(/*executor_threads=*/1));
    spark::SparkContext sc8(LintCluster(/*executor_threads=*/8));
    auto engine1 = factory.make(&sc1);
    auto engine8 = factory.make(&sc8);
    ASSERT_TRUE(engine1->Load(store).ok()) << factory.name;
    ASSERT_TRUE(engine8->Load(store).ok()) << factory.name;
    for (const auto& [shape, text] : corpus) {
      SCOPED_TRACE(factory.name + " / " + text);
      auto query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      // The static envelope alone: plan only (no tier), then analyze.
      auto p1 = engine1->Inspect(*query, /*tiers=*/0);
      auto p8 = engine8->Inspect(*query, /*tiers=*/0);
      ASSERT_EQ(p1.ok(), p8.ok());
      if (!p1.ok()) continue;
      auto a1 = engine1->AnalyzePlanResources(*query, *p1->plan);
      auto a8 = engine8->AnalyzePlanResources(*query, *p8->plan);
      EXPECT_EQ(RenderEnvelope(a1), RenderEnvelope(a8));
      EXPECT_EQ(a1.peak_bytes, a8.peak_bytes);
      EXPECT_EQ(a1.findings.size(), a8.findings.size());
    }
  }
}

}  // namespace
}  // namespace rdfspark::systems::plan
