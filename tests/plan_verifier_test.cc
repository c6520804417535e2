// Static plan verifier tests: every rule id triggered by a hand-built plan
// tree, clean trees produce no findings, and all engine plans for the
// golden LUBM shapes verify error-free under debug-check mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/plan/diagnostics.h"
#include "systems/plan/verifier.h"
#include "systems/s2rdf.h"
#include "systems/sparqlgx.h"

namespace rdfspark::systems {
namespace {

using plan::AccessPath;
using plan::Diagnostic;
using plan::EngineProfile;
using plan::MakeBinary;
using plan::MakeScan;
using plan::MakeUnary;
using plan::NodeKind;
using plan::PlanPtr;
using plan::Severity;
using plan::VerifyPlan;
using spark::ClusterConfig;
using spark::SparkContext;

/// A descriptive pattern-scan leaf binding `vars`, subject bound to
/// `subject` (empty = constant subject).
PlanPtr Scan(std::vector<std::string> vars, std::string subject,
             uint64_t est = 10, AccessPath access = AccessPath::kVpTable) {
  auto node = MakeScan(NodeKind::kPatternScan, access, "test scan", est,
                       nullptr);
  node->out_vars = std::move(vars);
  node->subject_var = std::move(subject);
  return node;
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule,
              Severity severity) {
  int n = 0;
  for (const auto& d : diags) {
    if (d.rule == rule && d.severity == severity) ++n;
  }
  return n;
}

TEST(PlanVerifierTest, CleanJoinPlanHasNoFindings) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?x",
                         Scan({"x", "y"}, "x"), Scan({"x", "z"}, "x"),
                         nullptr);
  join->key_vars = {"x"};
  auto project = MakeUnary(NodeKind::kProject, "?x ?y ?z", std::move(join),
                           nullptr);
  project->key_vars = {"x", "y", "z"};
  EXPECT_TRUE(VerifyPlan(*project, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, Sc001FlagsConsumedVariableNobodyProduces) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?q",
                         Scan({"x", "y"}, "x"), Scan({"x", "z"}, "x"),
                         nullptr);
  join->key_vars = {"q"};  // no descendant binds ?q
  auto diags = VerifyPlan(*join, EngineProfile{"test"});
  ASSERT_EQ(CountRule(diags, "SC001", Severity::kError), 1);
  EXPECT_NE(diags[0].message.find("?q"), std::string::npos);
  EXPECT_NE(diags[0].node_path.find("PartitionedHashJoin"),
            std::string::npos);
}

TEST(PlanVerifierTest, Sc001AppliesToFiltersAndProjects) {
  auto filter = MakeUnary(NodeKind::kFilter, "?missing > 3",
                          Scan({"x"}, "x"), nullptr);
  filter->key_vars = {"missing"};
  auto project =
      MakeUnary(NodeKind::kProject, "?alsomissing", std::move(filter),
                nullptr);
  project->key_vars = {"alsomissing"};
  auto diags = VerifyPlan(*project, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "SC001", Severity::kError), 2);
}

TEST(PlanVerifierTest, Sc002FlagsKeylessJoinOverDisjointSchemas) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ???",
                         Scan({"a", "b"}, "a"), Scan({"c", "d"}, "c"),
                         nullptr);
  auto diags = VerifyPlan(*join, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "SC002", Severity::kError), 1);
}

TEST(PlanVerifierTest, Sc002SilentWhenSchemasOverlapOrAreUnannotated) {
  // Overlapping schemas: the join key was just not declared.
  auto overlap = MakeBinary(NodeKind::kPartitionedHashJoin, "",
                            Scan({"a", "b"}, "a"), Scan({"b", "c"}, "b"),
                            nullptr);
  EXPECT_TRUE(VerifyPlan(*overlap, EngineProfile{"test"}).empty());
  // Unannotated plan (no out_vars anywhere) must verify vacuously.
  auto bare = MakeBinary(NodeKind::kPartitionedHashJoin, "",
                         Scan({}, ""), Scan({}, ""), nullptr);
  EXPECT_TRUE(VerifyPlan(*bare, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, Cp001WarnsOnCartesianInMultiPatternBgp) {
  auto cross = MakeBinary(NodeKind::kCartesianProduct, "merge",
                          Scan({"a"}, "a"), Scan({"b"}, "b"), nullptr);
  auto diags = VerifyPlan(*cross, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "CP001", Severity::kWarn), 1);
  EXPECT_EQ(plan::FormatDiagnostic(diags[0]).rfind("WARN [CP001] at 0 "
                                                   "CartesianProduct:",
                                                   0),
            0u);
}

TEST(PlanVerifierTest, Cp001SilentForSinglePatternPlans) {
  // One scan leaf: the cross joins against a constant table, which is the
  // planner's prerogative (unit rows, class-index binds).
  auto constant = plan::ConstantResultPlan(sparql::BindingTable::Unit(),
                                           "unit");
  auto cross = MakeBinary(NodeKind::kCartesianProduct, "bind",
                          std::move(constant), Scan({"a"}, "a"), nullptr);
  EXPECT_TRUE(VerifyPlan(*cross, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, Bc001WarnsWhenBroadcastBuildSideExceedsThreshold) {
  EngineProfile profile{"test"};
  profile.broadcast_threshold_bytes = 10000;
  // Smaller side: 1000 rows x 2 vars x 9 bytes = 18000 bytes > 10000.
  auto join = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                         Scan({"x", "y"}, "x", 5000),
                         Scan({"x", "z"}, "x", 1000), nullptr);
  join->key_vars = {"x"};
  auto diags = VerifyPlan(*join, profile);
  EXPECT_EQ(CountRule(diags, "BC001", Severity::kWarn), 1);

  // Under the threshold: 50 rows x 2 vars x 9 bytes = 900 bytes.
  auto small = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                          Scan({"x", "y"}, "x", 5000),
                          Scan({"x", "z"}, "x", 50), nullptr);
  small->key_vars = {"x"};
  EXPECT_EQ(CountRule(VerifyPlan(*small, profile), "BC001", Severity::kWarn),
            0);
}

TEST(PlanVerifierTest, Bc001SkipsUnestimatedPlansAndNonBroadcastEngines) {
  EngineProfile profile{"test"};
  profile.broadcast_threshold_bytes = 10000;
  auto unestimated = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                                Scan({"x", "y"}, "x", plan::kNoEstimate),
                                Scan({"x", "z"}, "x", plan::kNoEstimate),
                                nullptr);
  unestimated->key_vars = {"x"};
  EXPECT_TRUE(VerifyPlan(*unestimated, profile).empty());

  // threshold 0 = the engine never broadcasts; the rule does not apply.
  auto join = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                         Scan({"x", "y"}, "x", 5000),
                         Scan({"x", "z"}, "x", 1000), nullptr);
  join->key_vars = {"x"};
  EXPECT_TRUE(VerifyPlan(*join, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, St001ErrorsOnLocalStarMatchWithoutStarLayout) {
  auto star = MakeScan(NodeKind::kLocalStarMatch, AccessPath::kSubjectStar,
                       "?x star", 10, nullptr);
  star->out_vars = {"x", "y"};
  star->subject_var = "x";
  auto diags = VerifyPlan(*star, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "ST001", Severity::kError), 1);

  EngineProfile star_local{"test"};
  star_local.star_local_layout = true;
  star->subject_var = "x";
  EXPECT_TRUE(VerifyPlan(*star, star_local).empty());
}

TEST(PlanVerifierTest, St001InfoOnShuffledStarOverSubjectPartitioning) {
  EngineProfile profile{"test"};
  profile.subject_partitioned = true;
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?x",
                         Scan({"x", "y"}, "x"), Scan({"x", "z"}, "x"),
                         nullptr);
  join->key_vars = {"x"};
  auto diags = VerifyPlan(*join, profile);
  EXPECT_EQ(CountRule(diags, "ST001", Severity::kInfo), 1);

  // A co-partitioned join already exploits the placement: no finding.
  join->partition_local = true;
  EXPECT_TRUE(VerifyPlan(*join, profile).empty());

  // Joining different subjects (a chain) is not a star: no finding.
  auto chain = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?y",
                          Scan({"x", "y"}, "x"), Scan({"y", "z"}, "y"),
                          nullptr);
  chain->key_vars = {"y"};
  EXPECT_EQ(CountRule(VerifyPlan(*chain, profile), "ST001", Severity::kInfo),
            0);
}

TEST(PlanVerifierTest, Vp001WarnsOnUnboundedPredicateScanOverVp) {
  EngineProfile profile{"test"};
  profile.vertical_partitioned = true;
  auto scan = Scan({"s", "p", "o"}, "s", 100, AccessPath::kFullScan);
  auto diags = VerifyPlan(*scan, profile);
  EXPECT_EQ(CountRule(diags, "VP001", Severity::kWarn), 1);

  // Bound predicate reads one VP table: fine.
  auto vp = Scan({"s", "o"}, "s", 100, AccessPath::kVpTable);
  EXPECT_TRUE(VerifyPlan(*vp, profile).empty());
  // Engines with a single triple relation full-scan by design: fine.
  auto full = Scan({"s", "p", "o"}, "s", 100, AccessPath::kFullScan);
  EXPECT_TRUE(VerifyPlan(*full, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, VerifyForExecutionFailsOnlyOnErrors) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?q",
                         Scan({"a"}, "a"), Scan({"b"}, "b"), nullptr);
  join->key_vars = {"q"};
  Status bad = plan::VerifyForExecution(*join, EngineProfile{"test"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("SC001"), std::string::npos);

  // Warnings alone never block execution.
  auto cross = MakeBinary(NodeKind::kCartesianProduct, "merge",
                          Scan({"a"}, "a"), Scan({"b"}, "b"), nullptr);
  EXPECT_TRUE(plan::VerifyForExecution(*cross, EngineProfile{"test"}).ok());
}

// ---------------------------------------------------------------------------
// Engine-wide checks: the plans behind the golden EXPLAINs must verify with
// zero errors, both through Inspect's tier P and under debug-check execution.

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

const rdf::TripleStore& Dataset() {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    rdf::LubmConfig cfg;
    cfg.num_universities = 1;
    cfg.departments_per_university = 3;
    cfg.professors_per_department = 4;
    cfg.students_per_department = 20;
    cfg.courses_per_department = 5;
    s->AddAll(rdf::GenerateLubm(cfg));
    s->Dedupe();
    return s;
  }();
  return *store;
}

/// Inspects `text` for `tiers` (parse + Inspect).
Result<Inspection> InspectText(BgpEngineBase& engine, std::string_view text,
                               Tiers tiers) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  return engine.Inspect(query, tiers);
}

std::vector<std::pair<std::string, std::string>> ShapeQueries() {
  return {
      {"star", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3)},
      {"chain", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)},
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)},
  };
}

TEST(PlanVerifierEnginesTest, AllGoldenPlansLintWithoutErrors) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& [shape, text] : ShapeQueries()) {
      auto inspected = InspectText(*engine, text, kTierPlan);
      ASSERT_TRUE(inspected.ok()) << factory.name << "/" << shape;
      EXPECT_FALSE(plan::HasError(inspected->plan_findings))
          << factory.name << "/" << shape << ":\n"
          << plan::FormatDiagnostics(inspected->plan_findings);
    }
  }
}

TEST(PlanVerifierEnginesTest, DebugCheckModeExecutesAllShapes) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    engine->set_debug_check_plans(true);
    for (const auto& [shape, text] : ShapeQueries()) {
      auto parsed = sparql::ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << shape;
      auto result = engine->Execute(*parsed);
      EXPECT_TRUE(result.ok()) << factory.name << "/" << shape << ": "
                               << result.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Dataflow-lint tiers over the full corpus (star/linear/snowflake/complex):
// the query analyzer and the lineage analyzer must both be ERROR-free for
// every engine variant, and their output must not depend on which context
// ran the query.

TEST(DataflowLintEnginesTest, QueryAnalyzerErrorFreeOverCorpus) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& [shape, text] : rdf::LubmQueryMix()) {
      auto inspected = InspectText(*engine, text, kTierQuery);
      ASSERT_TRUE(inspected.ok())
          << factory.name << "/" << rdf::QueryShapeName(shape);
      EXPECT_EQ(inspected->plan, nullptr);  // Tier A never plans.
      EXPECT_FALSE(plan::HasError(inspected->query_findings))
          << factory.name << "/" << rdf::QueryShapeName(shape) << ":\n"
          << plan::FormatDiagnostics(inspected->query_findings);
    }
  }
}

TEST(DataflowLintEnginesTest, LineageAnalyzerErrorFreeOverCorpus) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& [shape, text] : rdf::LubmQueryMix()) {
      auto inspected = InspectText(*engine, text, kTierLineage);
      ASSERT_TRUE(inspected.ok())
          << factory.name << "/" << rdf::QueryShapeName(shape) << ": "
          << inspected.status().ToString();
      EXPECT_FALSE(plan::HasError(inspected->lineage_findings))
          << factory.name << "/" << rdf::QueryShapeName(shape) << ":\n"
          << plan::FormatDiagnostics(inspected->lineage_findings);
    }
  }
}

TEST(DataflowLintEnginesTest, LineageCaptureDeterministicAcrossContexts) {
  // Node ids are assigned on the driver during plan build/execution, so two
  // fresh contexts running the same query produce byte-identical DOT — the
  // determinism dataflow_lint's CI diff relies on.
  const std::string text = rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake);
  auto capture = [&](int threads) {
    ClusterConfig cfg = SmallCluster();
    cfg.executor_threads = threads;
    SparkContext sc(cfg);
    SparqlgxEngine engine(&sc);
    EXPECT_TRUE(engine.Load(Dataset()).ok());
    auto inspected = InspectText(engine, text, kTierLineage);
    EXPECT_TRUE(inspected.ok()) << inspected.status().ToString();
    return inspected->lineage->ToDot();
  };
  std::string serial = capture(0);
  EXPECT_EQ(serial, capture(0));
  EXPECT_EQ(serial, capture(3));
}

TEST(DataflowLintEnginesTest, QueryGateRejectsErrorQueriesBeforeExecution) {
  SparkContext sc(SmallCluster());
  S2rdfEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  engine.set_debug_check_queries(true);

  auto bad = sparql::ParseQuery(
      "SELECT ?ghost WHERE { ?s <http://p> ?o }");
  ASSERT_TRUE(bad.ok());
  auto rejected = engine.Execute(*bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("QA001"), std::string::npos);

  // WARN/INFO-level findings must not block execution.
  auto good = sparql::ParseQuery(
      rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(engine.Execute(*good).ok());

  // Gate off: the same query executes (the ghost column is simply unbound).
  engine.set_debug_check_queries(false);
  EXPECT_TRUE(engine.Execute(*bad).ok());
}

TEST(PlanVerifierEnginesTest, DebugCheckRejectsBrokenPlansBeforeExecution) {
  // VerifyForExecution is what EvaluateBgp consults in debug-check mode;
  // an ERROR-level finding must map to kInvalidArgument before any Spark
  // state is touched.
  auto star = MakeScan(NodeKind::kLocalStarMatch, AccessPath::kSubjectStar,
                       "?x star", 10, nullptr);
  star->subject_var = "x";
  star->out_vars = {"x"};
  EngineProfile no_star_layout{"S2X"};
  Status status = plan::VerifyForExecution(*star, no_star_layout);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("ST001"), std::string::npos);
}

// ---------------------------------------------------------------------
// Inspect: one plan and at most one execution for every tier together.
// The goldens below were recorded when each tier planned and executed on
// its own (a lineage capture run for the LN findings and node/shuffle
// counts, a separate race-checked Execute for RC/DT, and a second analyzed
// run for RS004/RS006), so they pin that sharing one run changes no
// finding.

struct InspectGolden {
  const char* variant;
  rdf::QueryShape shape;
  int lineage_nodes;
  int lineage_shuffles;
  const char* lineage;    ///< RenderDiagnostics of the LN findings.
  const char* races;      ///< RenderDiagnostics of the RC/DT findings.
  const char* resources;  ///< RS findings rendered, then RenderEnvelope.
};

const std::vector<InspectGolden>& InspectGoldens() {
  static const std::vector<InspectGolden>* goldens =
      new std::vector<InspectGolden>{
      {"SPARQLGX", rdf::QueryShape::kStar, 29, 6,
       R"G(no findings
)G",
       R"G(no findings
)G",
       R"G(no findings
stage 0: live=2672B working=0B shuffle=0B total=2672B
stage 1: live=3264B working=416B shuffle=416B total=4096B
stage 2: live=4816B working=416B shuffle=800B total=6032B
stage 3: live=25168B working=3104B shuffle=3600B total=31872B
peak envelope: 31872B across 4 stages
operator outputs: 25168B over 8 nodes
)G"},
      {"SPARQLGX", rdf::QueryShape::kSnowflake, 47, 10,
       R"G(INFO [LN003] at lineage: longest path crosses 5 shuffles (10 wide nodes total); each is a stage barrier (hint: cache intermediate results or collapse join stages to shorten the critical path)
)G",
       R"G(no findings
)G",
       R"G(WARN [RS006] at 0 envelope: assumed envelope of 188344B is 27.28x the observed 6904B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=3928B working=0B shuffle=0B total=3928B
stage 1: live=5384B working=512B shuffle=632B total=6528B
stage 2: live=9720B working=416B shuffle=1664B total=11800B
stage 3: live=21256B working=128B shuffle=4400B total=25784B
stage 4: live=50072B working=1952B shuffle=12512B total=64536B
stage 5: live=188344B working=4096B shuffle=30864B total=223304B
peak envelope: 223304B across 6 stages
operator outputs: 188344B over 12 nodes
)G"},
      {"Hybrid_SparkSQL_naive", rdf::QueryShape::kStar, 0, 0,
       R"G(no findings
)G",
       R"G(no findings
)G",
       R"G(WARN [RS005] at 0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 8778256B vs inputs 585440B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 585232B vs inputs 36800B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 36592B vs inputs 2256B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS006] at 0 envelope: assumed envelope of 18181008B is 4162.32x the observed 4368B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=18181008B working=624496B shuffle=0B total=18805504B
peak envelope: 18805504B across 1 stage
operator outputs: 18181008B over 8 nodes
)G"},
      {"Hybrid_SparkSQL_naive", rdf::QueryShape::kSnowflake, 0, 0,
       R"G(no findings
)G",
       R"G(no findings
)G",
       R"G(ERROR [RS002] at 0 Project: peak stage envelope of 22746838416B exceeds the cluster budget of 268435456B (hint: raise RDFSPARK_MEMORY_BUDGET, add executors, or narrow the query so less output stays live across stages)
WARN [RS005] at 0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 2468880016B vs inputs 15554064B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 15552016B vs inputs 972224B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 972016B vs inputs 43472B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 43216B vs inputs 1352B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS006] at 0 envelope: assumed envelope of 20261387224B is 2934731.64x the observed 6904B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=20261387224B working=2485451192B shuffle=0B total=22746838416B
peak envelope: 22746838416B across 1 stage
operator outputs: 20261387224B over 12 nodes
)G"},
      {"Hybrid_RDD_partitioned", rdf::QueryShape::kStar, 27, 7,
       R"G(INFO [LN003] at lineage: longest path crosses 4 shuffles (7 wide nodes total); each is a stage barrier (hint: cache intermediate results or collapse join stages to shorten the critical path)
)G",
       R"G(no findings
)G",
       R"G(WARN [RS006] at 0 envelope: assumed envelope of 106368B is 24.35x the observed 4368B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=2672B working=0B shuffle=0B total=2672B
stage 1: live=8784B working=416B shuffle=2256B total=11456B
stage 2: live=25056B working=416B shuffle=6320B total=31792B
stage 3: live=106368B working=416B shuffle=16480B total=123264B
peak envelope: 123264B across 4 stages
operator outputs: 106368B over 8 nodes
)G"},
      {"Hybrid_RDD_partitioned", rdf::QueryShape::kSnowflake, 43, 11,
       R"G(INFO [LN003] at lineage: longest path crosses 6 shuffles (11 wide nodes total); each is a stage barrier (hint: cache intermediate results or collapse join stages to shorten the critical path)
)G",
       R"G(no findings
)G",
       R"G(WARN [RS006] at 0 envelope: assumed envelope of 249784B is 36.18x the observed 6904B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=3928B working=0B shuffle=0B total=3928B
stage 1: live=5864B working=752B shuffle=1352B total=7968B
stage 2: live=11640B working=512B shuffle=2192B total=14344B
stage 3: live=27016B working=416B shuffle=5984B total=33416B
stage 4: live=65432B working=4096B shuffle=17424B total=86952B
stage 5: live=249784B working=128B shuffle=38480B total=288392B
peak envelope: 288392B across 6 stages
operator outputs: 249784B over 12 nodes
)G"},
      {"SparkRDF", rdf::QueryShape::kStar, 35, 7,
       R"G(INFO [LN003] at lineage: longest path crosses 4 shuffles (7 wide nodes total); each is a stage barrier (hint: cache intermediate results or collapse join stages to shorten the critical path)
)G",
       R"G(no findings
)G",
       R"G(WARN [RS005] at 0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 8778256B vs inputs 57360B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 55312B vs inputs 3680B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 3472B vs inputs 416B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS006] at 0 envelope: assumed envelope of 26396224B is 5426.86x the observed 4864B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=26396224B working=61456B shuffle=0B total=26457680B
peak envelope: 26457680B across 1 stage
operator outputs: 26396224B over 9 nodes
)G"},
      {"SparkRDF", rdf::QueryShape::kSnowflake, 47, 9,
       R"G(INFO [LN003] at lineage: longest path crosses 5 shuffles (9 wide nodes total); each is a stage barrier (hint: cache intermediate results or collapse join stages to shorten the critical path)
)G",
       R"G(no findings
)G",
       R"G(WARN [RS005] at 0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 4389136B vs inputs 30864B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS005] at 0.0.0.0.0.0 CartesianProduct: cartesian working set grows superlinearly: output envelope 14416B vs inputs 848B (hint: join through a shared variable (or pre-filter the inputs) so the output stays near-linear in the inputs)
WARN [RS006] at 0 envelope: assumed envelope of 17603200B is 1265.32x the observed 13912B — capacity admission is over-conservative for this plan (hint: refresh planner statistics so scan caps track the data)
stage 0: live=2832B working=0B shuffle=0B total=2832B
stage 1: live=17840B working=976B shuffle=272B total=19088B
stage 2: live=17603200B working=31376B shuffle=14672B total=17649248B
peak envelope: 17649248B across 3 stages
operator outputs: 17603200B over 12 nodes
)G"},
      };
  return *goldens;
}

std::unique_ptr<BgpEngineBase> LoadedVariant(const std::string& name,
                                             SparkContext* sc) {
  for (const auto& factory : AllEngineVariantFactories()) {
    if (factory.name != name) continue;
    auto engine = factory.make(sc);
    if (!engine->Load(Dataset()).ok()) return nullptr;
    return engine;
  }
  return nullptr;
}

sparql::Query CorpusQuery(rdf::QueryShape shape) {
  for (const auto& [s, text] : rdf::LubmQueryMix()) {
    if (s == shape) return *sparql::ParseQuery(text);
  }
  ADD_FAILURE() << "no corpus query for " << rdf::QueryShapeName(shape);
  return {};
}

TEST(InspectTest, AllTiersChargeExactlyOneAnalyzedRun) {
  for (const auto& golden : InspectGoldens()) {
    SCOPED_TRACE(std::string(golden.variant) + " / " +
                 rdf::QueryShapeName(golden.shape));
    sparql::Query query = CorpusQuery(golden.shape);

    SparkContext inspect_sc(SmallCluster());
    auto inspect_engine = LoadedVariant(golden.variant, &inspect_sc);
    ASSERT_NE(inspect_engine, nullptr);
    spark::Metrics before = inspect_sc.metrics();
    auto inspected = inspect_engine->Inspect(query, kAllTiers);
    ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
    spark::Metrics inspect_delta = inspect_sc.metrics() - before;

    SparkContext analyze_sc(SmallCluster());
    auto analyze_engine = LoadedVariant(golden.variant, &analyze_sc);
    ASSERT_NE(analyze_engine, nullptr);
    before = analyze_sc.metrics();
    ASSERT_TRUE(analyze_engine->ExecuteAnalyzed(query).ok());
    spark::Metrics analyze_delta = analyze_sc.metrics() - before;

    EXPECT_GT(analyze_delta.tasks.value(), 0u);
    EXPECT_EQ(inspect_delta.tasks.value(), analyze_delta.tasks.value());
    EXPECT_EQ(inspect_delta.shuffle_bytes.value(),
              analyze_delta.shuffle_bytes.value());
    EXPECT_EQ(inspect_delta.join_comparisons.value(),
              analyze_delta.join_comparisons.value());

    ASSERT_TRUE(inspected->lineage.has_value());
    EXPECT_EQ(static_cast<int>(inspected->lineage->nodes().size()),
              golden.lineage_nodes);
    EXPECT_EQ(inspected->lineage->ShuffleCount(), golden.lineage_shuffles);
    EXPECT_EQ(plan::RenderDiagnostics(inspected->lineage_findings),
              golden.lineage);
    EXPECT_EQ(plan::RenderDiagnostics(inspected->race_findings),
              golden.races);
    ASSERT_TRUE(inspected->resources.has_value());
    EXPECT_EQ(plan::RenderDiagnostics(inspected->resources->findings) +
                  plan::RenderEnvelope(*inspected->resources),
              golden.resources);
  }
}

TEST(InspectTest, PureTiersNeverExecute) {
  SparkContext sc(SmallCluster());
  auto engine = LoadedVariant("SPARQLGX", &sc);
  ASSERT_NE(engine, nullptr);
  sparql::Query query = CorpusQuery(rdf::QueryShape::kSnowflake);
  spark::Metrics before = sc.metrics();
  auto inspected = engine->Inspect(query, kTierQuery | kTierPlan);
  ASSERT_TRUE(inspected.ok());
  spark::Metrics delta = sc.metrics() - before;
  EXPECT_EQ(delta.tasks.value(), 0u);
  EXPECT_EQ(delta.jobs.value(), 0u);
  ASSERT_NE(inspected->plan, nullptr);
  EXPECT_EQ(inspected->plan->actuals, nullptr);
  EXPECT_FALSE(inspected->lineage.has_value());
  EXPECT_FALSE(inspected->resources.has_value());
}

TEST(InspectTest, TierAlphabetRoundTrips) {
  auto all = ParseTiers("A,P,B,C,D");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, kAllTiers);
  EXPECT_EQ(TierLetters(*all), "APBCD");
  auto subset = ParseTiers("dp a");
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(*subset, kTierQuery | kTierPlan | kTierResources);
  EXPECT_EQ(TierLetters(*subset), "APD");
  EXPECT_FALSE(ParseTiers("A,E").ok());
  EXPECT_FALSE(ParseTiers(",").ok());
}

}  // namespace
}  // namespace rdfspark::systems
