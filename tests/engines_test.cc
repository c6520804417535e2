#include "systems/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "systems/graphframes_engine.h"
#include "systems/graphx_sm.h"
#include "systems/haqwa.h"
#include "systems/hybrid.h"
#include "systems/s2rdf.h"
#include "systems/s2x.h"
#include "systems/sparkql.h"
#include "systems/sparkrdf.h"
#include "systems/sparqlgx.h"

namespace rdfspark::systems {
namespace {

using spark::ClusterConfig;
using spark::SparkContext;

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

/// Shared dataset: one small LUBM university, deduplicated.
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

/// Queries every engine must answer exactly like the reference evaluator.
/// BGP-only engines skip entries with `needs_bgp_plus`.
struct TestQuery {
  const char* label;
  std::string text;
  bool needs_bgp_plus = false;
};

std::vector<TestQuery> TestQueries() {
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  std::vector<TestQuery> qs;
  qs.push_back({"star3", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3)});
  qs.push_back({"star5", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 5)});
  qs.push_back({"linear2", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 2)});
  qs.push_back({"linear3", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)});
  qs.push_back(
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)});
  qs.push_back({"complex_filter",
                rdf::LubmShapeQuery(rdf::QueryShape::kComplex), true});
  qs.push_back({"single_pattern",
                prologue + "SELECT ?x ?d WHERE { ?x ub:worksFor ?d }"});
  qs.push_back({"constant_subject",
                prologue +
                    "SELECT ?p ?o WHERE { "
                    "<" + std::string(rdf::kUbPrefix) +
                    "Dept0.Univ0> ?p ?o }"});
  qs.push_back({"constant_object",
                prologue +
                    "SELECT ?x WHERE { ?x rdf:type ub:FullProfessor }"});
  qs.push_back({"object_object",
                prologue +
                    "SELECT ?s ?t WHERE { ?s ub:takesCourse ?c . "
                    "?t ub:teacherOf ?c }"});
  qs.push_back({"no_answers",
                prologue +
                    "SELECT ?x WHERE { ?x ub:worksFor ?d . "
                    "?d rdf:type ub:FullProfessor }"});
  qs.push_back({"unknown_uri",
                prologue + "SELECT ?x WHERE { ?x ub:noSuchPredicate ?y }"});
  qs.push_back({"optional",
                prologue +
                    "SELECT ?x ?u WHERE { ?x rdf:type ub:GraduateStudent . "
                    "OPTIONAL { ?x ub:undergraduateDegreeFrom ?u } }",
                true});
  qs.push_back({"union",
                prologue +
                    "SELECT ?x WHERE { { ?x rdf:type ub:FullProfessor } "
                    "UNION { ?x rdf:type ub:AssociateProfessor } }",
                true});
  qs.push_back({"distinct_order",
                prologue +
                    "SELECT DISTINCT ?d WHERE { ?x ub:worksFor ?d } "
                    "ORDER BY ?d LIMIT 2",
                true});
  qs.push_back({"ask_yes",
                prologue + "ASK { ?x rdf:type ub:University }"});
  return qs;
}

struct EngineFactory {
  std::string name;
  std::function<std::unique_ptr<BgpEngineBase>(SparkContext*)> make;
};

std::vector<EngineFactory> Factories() {
  std::vector<EngineFactory> out;
  out.push_back({"HAQWA", [](SparkContext* sc) {
                   return std::make_unique<HaqwaEngine>(sc);
                 }});
  out.push_back(
      {"HAQWA_workload", [](SparkContext* sc) {
         HaqwaEngine::Options opts;
         opts.frequent_queries = {
             rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)};
         return std::make_unique<HaqwaEngine>(sc, opts);
       }});
  out.push_back({"SPARQLGX", [](SparkContext* sc) {
                   return std::make_unique<SparqlgxEngine>(sc);
                 }});
  out.push_back({"SPARQLGX_nostats", [](SparkContext* sc) {
                   SparqlgxEngine::Options opts;
                   opts.enable_statistics_reordering = false;
                   return std::make_unique<SparqlgxEngine>(sc, opts);
                 }});
  out.push_back({"S2RDF", [](SparkContext* sc) {
                   return std::make_unique<S2rdfEngine>(sc);
                 }});
  out.push_back({"S2RDF_noextvp", [](SparkContext* sc) {
                   S2rdfEngine::Options opts;
                   opts.enable_extvp = false;
                   return std::make_unique<S2rdfEngine>(sc, opts);
                 }});
  out.push_back({"S2RDF_sf1", [](SparkContext* sc) {
                   S2rdfEngine::Options opts;
                   opts.selectivity_threshold = 1.0;
                   return std::make_unique<S2rdfEngine>(sc, opts);
                 }});
  for (auto mode :
       {HybridMode::kSparkSqlNaive, HybridMode::kRddPartitioned,
        HybridMode::kDataFrameAuto, HybridMode::kHybrid}) {
    std::string name = std::string("Hybrid_") + HybridModeName(mode);
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    out.push_back({name, [mode](SparkContext* sc) {
                     HybridEngine::Options opts;
                     opts.mode = mode;
                     return std::make_unique<HybridEngine>(sc, opts);
                   }});
  }
  out.push_back({"S2X", [](SparkContext* sc) {
                   return std::make_unique<S2xEngine>(sc);
                 }});
  out.push_back({"GraphX_SM", [](SparkContext* sc) {
                   return std::make_unique<GraphxSmEngine>(sc);
                 }});
  out.push_back({"Sparkql", [](SparkContext* sc) {
                   return std::make_unique<SparkqlEngine>(sc);
                 }});
  out.push_back({"GraphFrames", [](SparkContext* sc) {
                   return std::make_unique<GraphFramesEngine>(sc);
                 }});
  out.push_back({"GraphFrames_unopt", [](SparkContext* sc) {
                   GraphFramesEngine::Options opts;
                   opts.enable_frequency_ordering = false;
                   opts.enable_pruning = false;
                   return std::make_unique<GraphFramesEngine>(sc, opts);
                 }});
  out.push_back({"SparkRDF", [](SparkContext* sc) {
                   return std::make_unique<SparkRdfEngine>(sc);
                 }});
  out.push_back({"SparkRDF_noclass", [](SparkContext* sc) {
                   SparkRdfEngine::Options opts;
                   opts.enable_class_indexes = false;
                   return std::make_unique<SparkRdfEngine>(sc, opts);
                 }});
  return out;
}

class EngineConformanceTest
    : public ::testing::TestWithParam<EngineFactory> {};

TEST_P(EngineConformanceTest, MatchesReferenceEvaluatorOnAllQueries) {
  const rdf::TripleStore& store = Dataset();
  SparkContext sc(SmallCluster());
  auto engine = GetParam().make(&sc);
  auto load = engine->Load(store);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->input_triples, store.size());

  sparql::ReferenceEvaluator reference(&store);
  for (const auto& tq : TestQueries()) {
    auto query = sparql::ParseQuery(tq.text);
    ASSERT_TRUE(query.ok()) << tq.label << ": " << query.status().ToString();
    // BGP-only engines reject pattern-level extras (FILTER/OPTIONAL/UNION);
    // solution modifiers are evaluated driver-side by every engine.
    bool bgp_plus_needed = !query->where.IsPlainBgp();
    if (bgp_plus_needed &&
        engine->traits().fragment == SparqlFragment::kBgp) {
      auto r = engine->Execute(*query);
      EXPECT_FALSE(r.ok()) << tq.label << ": BGP engine must reject BGP+";
      continue;
    }
    auto expected = reference.Evaluate(*query);
    ASSERT_TRUE(expected.ok()) << tq.label;
    auto got = engine->Execute(*query);
    ASSERT_TRUE(got.ok()) << GetParam().name << " / " << tq.label << ": "
                          << got.status().ToString();
    if (!query->order_by.empty() || query->limit >= 0) {
      // Ordered/limited results: compare row counts only (ties make exact
      // row sets non-deterministic across engines).
      EXPECT_EQ(got->num_rows(), expected->num_rows())
          << GetParam().name << " / " << tq.label;
    } else {
      EXPECT_EQ(got->Decode(store.dictionary()),
                expected->Decode(store.dictionary()))
          << GetParam().name << " / " << tq.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineConformanceTest, ::testing::ValuesIn(Factories()),
    [](const ::testing::TestParamInfo<EngineFactory>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Behaviour-preservation guard for the physical-plan layer: every engine's
// results and query-time metrics must match values captured before the
// EvaluateBgp -> PlanBgp/PlanExecutor refactor. Regenerate the table with
//   RDFSPARK_PRINT_GOLDEN=1 ./engines_test
//     --gtest_filter='*MatchesPreRefactorGoldens*'   (one line)
// ---------------------------------------------------------------------------

/// One captured execution: order-insensitive result hash plus the metric
/// counters most sensitive to join strategy and ordering changes.
struct GoldenRun {
  const char* engine;
  const char* query;
  uint64_t result_hash;
  uint64_t shuffle_records;
  uint64_t join_comparisons;
  uint64_t broadcast_bytes;
};

/// FNV-1a over the decoded rows in sorted canonical form.
uint64_t HashDecoded(const sparql::BindingTable& table,
                     const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  for (const auto& decoded : table.Decode(dict)) {
    std::string row;
    for (const auto& [var, term] : decoded) {
      row += var;
      row += '=';
      row += term;
      row += ';';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const auto& row : rows) {
    for (char c : row) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  return h;
}

const std::vector<GoldenRun>& GoldenRuns() {
  static const std::vector<GoldenRun>* runs = new std::vector<GoldenRun>{
      // RDFSPARK_GOLDEN_TABLE_BEGIN
      {"HAQWA", "star3", 0x6e4f46cd4067675bull, 0ull, 0ull, 0ull},
      {"HAQWA", "star5", 0x6ff92254b5451753ull, 0ull, 0ull, 0ull},
      {"HAQWA", "linear3", 0x59711d0770b5f4d2ull, 33ull, 29ull, 0ull},
      {"HAQWA", "snowflake", 0x4dcb0d81391cebb0ull, 33ull, 29ull, 0ull},
      {"HAQWA", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"HAQWA", "object_object", 0x2f8d36d8fb7af6d4ull, 60ull, 115ull, 0ull},
      {"HAQWA_workload", "star3", 0x6e4f46cd4067675bull, 0ull, 0ull, 0ull},
      {"HAQWA_workload", "star5", 0x6ff92254b5451753ull, 0ull, 0ull, 0ull},
      {"HAQWA_workload", "linear3", 0x59711d0770b5f4d2ull, 22ull, 29ull, 0ull},
      {"HAQWA_workload", "snowflake", 0x4dcb0d81391cebb0ull, 33ull, 29ull, 0ull},
      {"HAQWA_workload", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"HAQWA_workload", "object_object", 0x2f8d36d8fb7af6d4ull, 60ull, 115ull, 0ull},
      {"SPARQLGX", "star3", 0x6e4f46cd4067675bull, 8ull, 24ull, 0ull},
      {"SPARQLGX", "star5", 0x6ff92254b5451753ull, 12ull, 58ull, 0ull},
      {"SPARQLGX", "linear3", 0x59711d0770b5f4d2ull, 4ull, 29ull, 0ull},
      {"SPARQLGX", "snowflake", 0x4dcb0d81391cebb0ull, 27ull, 75ull, 0ull},
      {"SPARQLGX", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"SPARQLGX", "object_object", 0x2f8d36d8fb7af6d4ull, 6ull, 115ull, 0ull},
      {"SPARQLGX_nostats", "star3", 0x6e4f46cd4067675bull, 10ull, 24ull, 0ull},
      {"SPARQLGX_nostats", "star5", 0x6ff92254b5451753ull, 18ull, 53ull, 0ull},
      {"SPARQLGX_nostats", "linear3", 0x59711d0770b5f4d2ull, 4ull, 30ull, 0ull},
      {"SPARQLGX_nostats", "snowflake", 0x4dcb0d81391cebb0ull, 25ull, 75ull, 0ull},
      {"SPARQLGX_nostats", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"SPARQLGX_nostats", "object_object", 0x2f8d36d8fb7af6d4ull, 6ull, 142ull, 0ull},
      {"S2RDF", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 1296ull},
      {"S2RDF", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 2862ull},
      {"S2RDF", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 1458ull},
      {"S2RDF", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 2970ull},
      {"S2RDF", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2RDF", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"S2RDF_noextvp", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 7506ull},
      {"S2RDF_noextvp", "star5", 0x6ff92254b5451753ull, 0ull, 58ull, 9072ull},
      {"S2RDF_noextvp", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 1458ull},
      {"S2RDF_noextvp", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 74ull, 12366ull},
      {"S2RDF_noextvp", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2RDF_noextvp", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"S2RDF_sf1", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 1296ull},
      {"S2RDF_sf1", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 2862ull},
      {"S2RDF_sf1", "linear3", 0x59711d0770b5f4d2ull, 0ull, 25ull, 1350ull},
      {"S2RDF_sf1", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 2862ull},
      {"S2RDF_sf1", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2RDF_sf1", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"Hybrid_SparkSQL_naive", "star3", 0x6e4f46cd4067675bull, 0ull, 1668ull, 0ull},
      {"Hybrid_SparkSQL_naive", "star5", 0x6ff92254b5451753ull, 0ull, 2016ull, 0ull},
      {"Hybrid_SparkSQL_naive", "linear3", 0x59711d0770b5f4d2ull, 0ull, 225ull, 0ull},
      {"Hybrid_SparkSQL_naive", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 3255ull, 0ull},
      {"Hybrid_SparkSQL_naive", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_SparkSQL_naive", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 1768ull, 0ull},
      {"Hybrid_RDD_partitioned", "star3", 0x6e4f46cd4067675bull, 26ull, 24ull, 0ull},
      {"Hybrid_RDD_partitioned", "star5", 0x6ff92254b5451753ull, 50ull, 53ull, 0ull},
      {"Hybrid_RDD_partitioned", "linear3", 0x59711d0770b5f4d2ull, 30ull, 30ull, 0ull},
      {"Hybrid_RDD_partitioned", "snowflake", 0x4dcb0d81391cebb0ull, 73ull, 75ull, 0ull},
      {"Hybrid_RDD_partitioned", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_RDD_partitioned", "object_object", 0x2f8d36d8fb7af6d4ull, 60ull, 142ull, 0ull},
      {"Hybrid_DataFrame_broadcast", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 7506ull},
      {"Hybrid_DataFrame_broadcast", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 9072ull},
      {"Hybrid_DataFrame_broadcast", "linear3", 0x59711d0770b5f4d2ull, 0ull, 30ull, 810ull},
      {"Hybrid_DataFrame_broadcast", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 11718ull},
      {"Hybrid_DataFrame_broadcast", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_DataFrame_broadcast", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 142ull, 918ull},
      {"Hybrid_Hybrid", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 7506ull},
      {"Hybrid_Hybrid", "star5", 0x6ff92254b5451753ull, 0ull, 58ull, 9072ull},
      {"Hybrid_Hybrid", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 1458ull},
      {"Hybrid_Hybrid", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 11718ull},
      {"Hybrid_Hybrid", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_Hybrid", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"S2X", "star3", 0x6e4f46cd4067675bull, 42ull, 24ull, 0ull},
      {"S2X", "star5", 0x6ff92254b5451753ull, 80ull, 53ull, 0ull},
      {"S2X", "linear3", 0x59711d0770b5f4d2ull, 36ull, 30ull, 0ull},
      {"S2X", "snowflake", 0x4dcb0d81391cebb0ull, 103ull, 75ull, 0ull},
      {"S2X", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2X", "object_object", 0x2f8d36d8fb7af6d4ull, 41ull, 115ull, 0ull},
      {"GraphX_SM", "star3", 0x6e4f46cd4067675bull, 3639ull, 2806ull, 0ull},
      {"GraphX_SM", "star5", 0x6ff92254b5451753ull, 7270ull, 5612ull, 0ull},
      {"GraphX_SM", "linear3", 0x59711d0770b5f4d2ull, 3610ull, 2806ull, 0ull},
      {"GraphX_SM", "snowflake", 0x4dcb0d81391cebb0ull, 9056ull, 7015ull, 0ull},
      {"GraphX_SM", "constant_object", 0x29fef2979fd98f3cull, 6ull, 0ull, 0ull},
      {"GraphX_SM", "object_object", 0x2f8d36d8fb7af6d4ull, 1844ull, 1403ull, 0ull},
      {"Sparkql", "star3", 0x6e4f46cd4067675bull, 1117ull, 828ull, 0ull},
      {"Sparkql", "star5", 0x6ff92254b5451753ull, 3357ull, 2109ull, 0ull},
      {"Sparkql", "linear3", 0x59711d0770b5f4d2ull, 3468ull, 2357ull, 0ull},
      {"Sparkql", "snowflake", 0x4dcb0d81391cebb0ull, 4489ull, 3046ull, 0ull},
      {"Sparkql", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Sparkql", "object_object", 0x2f8d36d8fb7af6d4ull, 2368ull, 1534ull, 0ull},
      {"GraphFrames", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 11259ull},
      {"GraphFrames", "star5", 0x6ff92254b5451753ull, 0ull, 58ull, 13608ull},
      {"GraphFrames", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 2187ull},
      {"GraphFrames", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 74ull, 27621ull},
      {"GraphFrames", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"GraphFrames", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 8424ull},
      {"GraphFrames_unopt", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 11259ull},
      {"GraphFrames_unopt", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 13608ull},
      {"GraphFrames_unopt", "linear3", 0x59711d0770b5f4d2ull, 0ull, 30ull, 1215ull},
      {"GraphFrames_unopt", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 17577ull},
      {"GraphFrames_unopt", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"GraphFrames_unopt", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 142ull, 1377ull},
      {"SparkRDF", "star3", 0x6e4f46cd4067675bull, 99ull, 1796ull, 0ull},
      {"SparkRDF", "star5", 0x6ff92254b5451753ull, 142ull, 2907ull, 0ull},
      {"SparkRDF", "linear3", 0x59711d0770b5f4d2ull, 39ull, 256ull, 0ull},
      {"SparkRDF", "snowflake", 0x4dcb0d81391cebb0ull, 125ull, 2405ull, 0ull},
      {"SparkRDF", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"SparkRDF", "object_object", 0x2f8d36d8fb7af6d4ull, 100ull, 1832ull, 0ull},
      {"SparkRDF_noclass", "star3", 0x6e4f46cd4067675bull, 99ull, 1796ull, 0ull},
      {"SparkRDF_noclass", "star5", 0x6ff92254b5451753ull, 142ull, 2907ull, 0ull},
      {"SparkRDF_noclass", "linear3", 0x59711d0770b5f4d2ull, 39ull, 256ull, 0ull},
      {"SparkRDF_noclass", "snowflake", 0x4dcb0d81391cebb0ull, 145ull, 93335ull, 0ull},
      {"SparkRDF_noclass", "constant_object", 0x29fef2979fd98f3cull, 6ull, 0ull, 0ull},
      {"SparkRDF_noclass", "object_object", 0x2f8d36d8fb7af6d4ull, 100ull, 1832ull, 0ull},
      // RDFSPARK_GOLDEN_TABLE_END
  };
  return *runs;
}

TEST(PlanRefactorEquivalenceTest, MatchesPreRefactorGoldens) {
  const std::vector<const char*> kLabels = {
      "star3",           "star5",         "linear3",
      "snowflake",       "constant_object", "object_object"};
  const rdf::TripleStore& store = Dataset();
  const bool print = std::getenv("RDFSPARK_PRINT_GOLDEN") != nullptr;
  if (!print && GoldenRuns().empty()) {
    GTEST_SKIP() << "golden table not captured yet";
  }

  std::vector<TestQuery> queries = TestQueries();
  for (const auto& factory : Factories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
    for (const char* label : kLabels) {
      auto it = std::find_if(
          queries.begin(), queries.end(),
          [label](const TestQuery& q) { return std::string(q.label) == label; });
      ASSERT_NE(it, queries.end()) << label;
      auto query = sparql::ParseQuery(it->text);
      ASSERT_TRUE(query.ok()) << label;
      auto before = sc.metrics();
      auto result = engine->Execute(*query);
      auto delta = sc.metrics() - before;
      ASSERT_TRUE(result.ok())
          << factory.name << " / " << label << ": "
          << result.status().ToString();
      uint64_t hash = HashDecoded(*result, store.dictionary());
      if (print) {
        std::printf(
            "      {\"%s\", \"%s\", 0x%016llxull, %lluull, %lluull, "
            "%lluull},\n",
            factory.name.c_str(), label,
            static_cast<unsigned long long>(hash),
            static_cast<unsigned long long>(delta.shuffle_records),
            static_cast<unsigned long long>(delta.join_comparisons),
            static_cast<unsigned long long>(delta.broadcast_bytes));
        continue;
      }
      auto golden = std::find_if(
          GoldenRuns().begin(), GoldenRuns().end(),
          [&](const GoldenRun& g) {
            return factory.name == g.engine && std::string(label) == g.query;
          });
      ASSERT_NE(golden, GoldenRuns().end())
          << "no golden for " << factory.name << " / " << label;
      EXPECT_EQ(hash, golden->result_hash) << factory.name << " / " << label;
      EXPECT_EQ(delta.shuffle_records, golden->shuffle_records)
          << factory.name << " / " << label;
      EXPECT_EQ(delta.join_comparisons, golden->join_comparisons)
          << factory.name << " / " << label;
      EXPECT_EQ(delta.broadcast_bytes, golden->broadcast_bytes)
          << factory.name << " / " << label;
    }
  }
}

/// The batch data plane must not depend on task interleaving: every engine
/// variant produces the same rows in the same order whether the executor
/// pool has one thread or eight. Compares the raw flat buffers (variables,
/// width, cells), which is strictly stronger than the order-insensitive
/// decoded hash.
TEST(PlanRefactorEquivalenceTest, ResultsBitIdenticalAcrossThreading) {
  const std::vector<const char*> kLabels = {"star3", "linear3", "snowflake",
                                            "object_object"};
  const rdf::TripleStore& store = Dataset();
  std::vector<TestQuery> queries = TestQueries();
  for (const auto& factory : Factories()) {
    for (const char* label : kLabels) {
      auto it = std::find_if(
          queries.begin(), queries.end(),
          [label](const TestQuery& q) { return std::string(q.label) == label; });
      ASSERT_NE(it, queries.end()) << label;
      auto query = sparql::ParseQuery(it->text);
      ASSERT_TRUE(query.ok()) << label;
      sparql::BindingTable serial;
      sparql::BindingTable pooled;
      for (auto [threads, out] :
           {std::pair<int, sparql::BindingTable*>{1, &serial}, {8, &pooled}}) {
        ClusterConfig cfg = SmallCluster();
        cfg.executor_threads = threads;
        SparkContext sc(cfg);
        auto engine = factory.make(&sc);
        ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
        auto result = engine->Execute(*query);
        ASSERT_TRUE(result.ok()) << factory.name << " / " << label;
        *out = std::move(*result);
      }
      EXPECT_EQ(serial.vars(), pooled.vars()) << factory.name << " / " << label;
      EXPECT_EQ(serial.rows().width(), pooled.rows().width())
          << factory.name << " / " << label;
      EXPECT_EQ(serial.rows().data(), pooled.rows().data())
          << factory.name << " / " << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-specific behaviour.
// ---------------------------------------------------------------------------

TEST(HaqwaTest, StarQueriesShuffleNothing) {
  SparkContext sc(SmallCluster());
  HaqwaEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto before = sc.metrics();
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kStar, 4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_EQ(delta.shuffle_records, 0u)
      << "subject-hash fragmentation must answer star queries locally";
  EXPECT_GT(result->num_rows(), 0u);
}

TEST(HaqwaTest, WorkloadReplicationRemovesLinearShuffles) {
  const std::string linear = rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3);

  SparkContext sc_plain(SmallCluster());
  HaqwaEngine plain(&sc_plain);
  ASSERT_TRUE(plain.Load(Dataset()).ok());
  auto before_plain = sc_plain.metrics();
  ASSERT_TRUE(plain.ExecuteText(linear).ok());
  auto delta_plain = sc_plain.metrics() - before_plain;

  SparkContext sc_aware(SmallCluster());
  HaqwaEngine::Options opts;
  opts.frequent_queries = {linear};
  HaqwaEngine aware(&sc_aware, opts);
  ASSERT_TRUE(aware.Load(Dataset()).ok());
  EXPECT_GT(aware.replicated_triples(), 0u);
  auto before_aware = sc_aware.metrics();
  ASSERT_TRUE(aware.ExecuteText(linear).ok());
  auto delta_aware = sc_aware.metrics() - before_aware;

  EXPECT_LT(delta_aware.shuffle_records, delta_plain.shuffle_records)
      << "workload-aware replication must reduce query-time shuffling";
}

TEST(SparqlgxTest, BoundedPredicateReadsOnlyItsPartition) {
  SparkContext sc(SmallCluster());
  SparqlgxEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) + ">\n";
  auto before = sc.metrics();
  auto result = engine.ExecuteText(
      prologue + "SELECT ?x ?d WHERE { ?x ub:headOf ?d }");
  ASSERT_TRUE(result.ok());
  auto delta = sc.metrics() - before;
  // headOf has 3 triples; processing must not touch the whole dataset.
  EXPECT_LT(delta.records_processed, Dataset().size() / 4);
}

TEST(SparqlgxTest, StatisticsReorderingReducesIntermediateRecords) {
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  // Written worst-first: the huge name pattern precedes the selective one.
  const std::string query = prologue +
                            "SELECT ?x ?n WHERE { ?x ub:name ?n . "
                            "?x ub:headOf ?d . }";

  SparkContext sc1(SmallCluster());
  SparqlgxEngine::Options no_stats;
  no_stats.enable_statistics_reordering = false;
  SparqlgxEngine unopt(&sc1, no_stats);
  ASSERT_TRUE(unopt.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = unopt.ExecuteText(query);
  ASSERT_TRUE(r1.ok());
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  SparqlgxEngine opt(&sc2);
  ASSERT_TRUE(opt.Load(Dataset()).ok());
  auto before2 = sc2.metrics();
  auto r2 = opt.ExecuteText(query);
  ASSERT_TRUE(r2.ok());
  auto delta2 = sc2.metrics() - before2;

  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LE(delta2.shuffle_records, delta1.shuffle_records);
}

TEST(S2rdfTest, TranslatesBgpToSql) {
  SparkContext sc(SmallCluster());
  S2rdfEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto query = sparql::ParseQuery(
      rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  ASSERT_TRUE(query.ok());
  auto sql = engine.TranslateBgpToSql(query->where.bgp);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_NE(sql->find("SELECT"), std::string::npos);
  EXPECT_NE(sql->find("JOIN"), std::string::npos);
  EXPECT_NE(sql->find(" ON "), std::string::npos);
}

TEST(S2rdfTest, ExtVpMaterializesOnlyUnderThreshold) {
  SparkContext sc(SmallCluster());
  S2rdfEngine::Options strict;
  strict.selectivity_threshold = 0.25;
  S2rdfEngine small(&sc, strict);
  ASSERT_TRUE(small.Load(Dataset()).ok());

  SparkContext sc2(SmallCluster());
  S2rdfEngine::Options loose;
  loose.selectivity_threshold = 1.0;
  S2rdfEngine big(&sc2, loose);
  ASSERT_TRUE(big.Load(Dataset()).ok());

  EXPECT_LT(small.num_extvp_tables(), big.num_extvp_tables());
  EXPECT_LT(small.extvp_rows(), big.extvp_rows());
  EXPECT_GT(big.num_extvp_tables(), 0u);
}

TEST(S2rdfTest, ExtVpShrinksJoinInputs) {
  const std::string linear = rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 2);

  SparkContext sc1(SmallCluster());
  S2rdfEngine::Options off;
  off.enable_extvp = false;
  S2rdfEngine vp_only(&sc1, off);
  ASSERT_TRUE(vp_only.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = vp_only.ExecuteText(linear);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  S2rdfEngine::Options on;
  on.selectivity_threshold = 1.0;
  S2rdfEngine extvp(&sc2, on);
  ASSERT_TRUE(extvp.Load(Dataset()).ok());
  auto before2 = sc2.metrics();
  auto r2 = extvp.ExecuteText(linear);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto delta2 = sc2.metrics() - before2;

  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LT(delta2.join_comparisons, delta1.join_comparisons)
      << "semi-join reduced tables must cut join work";
}

TEST(S2xTest, FixpointIteratesAndPrunes) {
  SparkContext sc(SmallCluster());
  S2xEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto before = sc.metrics();
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_GE(engine.last_iterations(), 2);  // at least one pruning round
  EXPECT_GT(delta.supersteps, 0u);
  EXPECT_GT(delta.messages, 0u);
  EXPECT_GT(result->num_rows(), 0u);
}

TEST(S2xTest, LongerChainsNeedMoreIterations) {
  SparkContext sc(SmallCluster());
  S2xEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  ASSERT_TRUE(
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 2))
          .ok());
  int short_iters = engine.last_iterations();
  ASSERT_TRUE(
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 4))
          .ok());
  int long_iters = engine.last_iterations();
  EXPECT_GE(long_iters, short_iters);
}

TEST(GraphxSmTest, MessagesFlowPerPattern) {
  SparkContext sc(SmallCluster());
  GraphxSmEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto before = sc.metrics();
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_GT(delta.messages, 0u);
  EXPECT_GT(result->num_rows(), 0u);
}

TEST(GraphFramesTest, PruningShrinksProcessedRecords) {
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3);

  SparkContext sc1(SmallCluster());
  GraphFramesEngine::Options off;
  off.enable_pruning = false;
  off.enable_frequency_ordering = false;
  GraphFramesEngine unopt(&sc1, off);
  ASSERT_TRUE(unopt.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = unopt.ExecuteText(query);
  ASSERT_TRUE(r1.ok());
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  GraphFramesEngine opt(&sc2);
  ASSERT_TRUE(opt.Load(Dataset()).ok());
  auto before2 = sc2.metrics();
  auto r2 = opt.ExecuteText(query);
  ASSERT_TRUE(r2.ok());
  auto delta2 = sc2.metrics() - before2;

  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LT(delta2.join_comparisons, delta1.join_comparisons);
  EXPECT_LT(delta2.records_processed, delta1.records_processed);
}

TEST(SparkRdfTest, ClassIndexesCutProcessedRecords) {
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake);

  SparkContext sc1(SmallCluster());
  SparkRdfEngine::Options off;
  off.enable_class_indexes = false;
  SparkRdfEngine plain(&sc1, off);
  ASSERT_TRUE(plain.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = plain.ExecuteText(query);
  ASSERT_TRUE(r1.ok());
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  SparkRdfEngine indexed(&sc2);
  auto load = indexed.Load(Dataset());
  ASSERT_TRUE(load.ok());
  // MESG's levels 2/3 store extra copies: a storage blow-up...
  auto load_plain = plain.Load(Dataset());
  ASSERT_TRUE(load_plain.ok());
  EXPECT_GT(load->stored_records, load_plain->stored_records);
  auto before2 = sc2.metrics();
  auto r2 = indexed.ExecuteText(query);
  ASSERT_TRUE(r2.ok());
  auto delta2 = sc2.metrics() - before2;

  // ...traded for less data read and joined at query time.
  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LT(delta2.records_processed, delta1.records_processed);
}

TEST(SparkqlTest, DataPropertiesLiveInNodes) {
  SparkContext sc(SmallCluster());
  SparkqlEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  // A pure data-property star never touches edges: no messages at all.
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  auto before = sc.metrics();
  auto result = engine.ExecuteText(
      prologue +
      "SELECT ?x ?n WHERE { ?x rdf:type ub:FullProfessor . ?x ub:name ?n }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_GT(result->num_rows(), 0u);
  EXPECT_EQ(delta.messages, 0u)
      << "node-local predicates must not exchange messages";
}

TEST(MakeAllEnginesTest, ProducesNineSystems) {
  SparkContext sc(SmallCluster());
  auto engines = MakeAllEngines(&sc);
  ASSERT_EQ(engines.size(), 9u);
  // Names unique, traits populated.
  std::set<std::string> names;
  for (const auto& e : engines) {
    EXPECT_FALSE(e->traits().name.empty());
    EXPECT_FALSE(e->traits().citation.empty());
    EXPECT_FALSE(e->traits().abstractions.empty());
    names.insert(e->traits().name);
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(TraitsTest, TableRowsMatchPaper) {
  SparkContext sc(SmallCluster());
  HaqwaEngine haqwa(&sc);
  EXPECT_EQ(haqwa.traits().partitioning, "Hash / Query Aware");
  EXPECT_EQ(haqwa.traits().query_processing, "RDD API");
  EXPECT_FALSE(haqwa.traits().has_optimization);

  SparqlgxEngine gx(&sc);
  EXPECT_EQ(gx.traits().partitioning, "Vertical");
  EXPECT_TRUE(gx.traits().has_optimization);

  S2rdfEngine s2rdf(&sc);
  EXPECT_EQ(s2rdf.traits().partitioning, "Extended Vertical");
  EXPECT_EQ(s2rdf.traits().query_processing, "Spark SQL");
  EXPECT_EQ(s2rdf.traits().fragment, SparqlFragment::kBgpPlus);
}

}  // namespace
}  // namespace rdfspark::systems
