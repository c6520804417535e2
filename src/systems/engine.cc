#include "systems/engine.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "spark/hb.h"
#include "spark/sql/dataframe.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "systems/batch.h"
#include "systems/plan/analyze.h"
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

// Row counters for the payload representations shared by several engines.
// They live here, beside every analyzed run, so any binary that links an
// engine has them; engines with TU-local payload types register their own
// (see plan/analyze.h).
// Batch payloads: one IdTable (or keyed batch / per-vertex table) per
// partition element; rows out is the sum of batch sizes.
const plan::BatchPayloadRowCounterRegistration<
    sparql::IdTable, uint64_t (*)(const sparql::IdTable&)>
    kBatchRdd(+[](const sparql::IdTable& b) -> uint64_t { return b.size(); });
const plan::BatchPayloadRowCounterRegistration<
    KeyedBatch, uint64_t (*)(const KeyedBatch&)>
    kKeyedBatchRdd(
        +[](const KeyedBatch& b) -> uint64_t { return b.rows.size(); });
const plan::BatchPayloadRowCounterRegistration<
    std::pair<int64_t, sparql::IdTable>,
    uint64_t (*)(const std::pair<int64_t, sparql::IdTable>&)>
    kVertexBatchRdd(+[](const std::pair<int64_t, sparql::IdTable>& kv)
                        -> uint64_t { return kv.second.size(); });

struct DriverPayloadRegistration {
  DriverPayloadRegistration() {
    // Driver-side flat tables (SparkRDF's collected intermediates).
    plan::RegisterPayloadRowCounter(
        [](const plan::PlanPayload& payload) -> std::optional<uint64_t> {
          const auto* rows = std::any_cast<sparql::IdTable>(&payload);
          if (rows == nullptr) return std::nullopt;
          return rows->size();
        });
    // DataFrames are eager; NumRows just sums batch sizes.
    plan::RegisterPayloadRowCounter(
        [](const plan::PlanPayload& payload) -> std::optional<uint64_t> {
          const auto* df = std::any_cast<spark::sql::DataFrame>(&payload);
          if (df == nullptr || !df->valid()) return std::nullopt;
          return df->NumRows();
        });
  }
};
const DriverPayloadRegistration kDriverPayloads;

}  // namespace

const char* SparkAbstractionName(SparkAbstraction a) {
  switch (a) {
    case SparkAbstraction::kRdd:
      return "RDD";
    case SparkAbstraction::kDataFrames:
      return "DataFrames";
    case SparkAbstraction::kSparkSql:
      return "Spark SQL";
    case SparkAbstraction::kGraphX:
      return "GraphX";
    case SparkAbstraction::kGraphFrames:
      return "GraphFrames";
  }
  return "unknown";
}

const char* DataModelName(DataModel m) {
  return m == DataModel::kTriple ? "The Triple Model" : "The Graph Model";
}

const char* SparqlFragmentName(SparqlFragment f) {
  return f == SparqlFragment::kBgp ? "BGP" : "BGP+";
}

uint64_t PatternScanBound(const rdf::Dictionary& dict,
                          const rdf::DatasetStatistics& stats,
                          const sparql::TriplePattern& tp) {
  if (tp.p.is_variable()) return stats.num_triples;
  auto id = dict.Lookup(tp.p.term());
  if (!id.ok()) return 0;  // Predicate absent from the data: empty relation.
  auto count = stats.predicate_count.find(*id);
  uint64_t bound =
      count == stats.predicate_count.end() ? 0 : count->second;
  if (!tp.s.is_variable()) {
    auto deg = stats.predicate_max_subject_degree.find(*id);
    if (deg != stats.predicate_max_subject_degree.end()) {
      bound = std::min(bound, deg->second);
    }
  }
  if (!tp.o.is_variable()) {
    auto deg = stats.predicate_max_object_degree.find(*id);
    if (deg != stats.predicate_max_object_degree.end()) {
      bound = std::min(bound, deg->second);
    }
  }
  return bound;
}

uint64_t StarScanBound(const rdf::Dictionary& dict,
                       const rdf::DatasetStatistics& stats,
                       const std::vector<sparql::TriplePattern>& patterns) {
  if (patterns.empty()) return 1;
  // Per-pattern base bounds and per-subject multiplicities.
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> degrees;
  bounds.reserve(patterns.size());
  degrees.reserve(patterns.size());
  for (const auto& tp : patterns) {
    bounds.push_back(PatternScanBound(dict, stats, tp));
    uint64_t degree = stats.num_triples;  // Predicate variable: no cap.
    if (!tp.p.is_variable()) {
      auto id = dict.Lookup(tp.p.term());
      if (!id.ok()) {
        degree = 0;
      } else {
        auto it = stats.predicate_max_subject_degree.find(*id);
        degree = it == stats.predicate_max_subject_degree.end() ? 0
                                                                : it->second;
      }
    }
    degrees.push_back(degree);
  }
  constexpr uint64_t kCap = std::numeric_limits<uint64_t>::max();
  auto sat_mul = [](uint64_t a, uint64_t b) {
    if (a == 0 || b == 0) return uint64_t{0};
    return a > kCap / b ? kCap : a * b;
  };
  uint64_t best = kCap;
  for (size_t i = 0; i < patterns.size(); ++i) {
    uint64_t candidate = bounds[i];
    for (size_t j = 0; j < patterns.size(); ++j) {
      if (j != i) candidate = sat_mul(candidate, degrees[j]);
    }
    best = std::min(best, candidate);
  }
  return best;
}

Result<Tiers> ParseTiers(std::string_view text) {
  Tiers tiers = 0;
  for (char c : text) {
    switch (c) {
      case ',':
      case ' ':
        break;
      case 'A': case 'a': tiers |= kTierQuery; break;
      case 'P': case 'p': tiers |= kTierPlan; break;
      case 'B': case 'b': tiers |= kTierLineage; break;
      case 'C': case 'c': tiers |= kTierRaces; break;
      case 'D': case 'd': tiers |= kTierResources; break;
      default:
        return Status::InvalidArgument("invalid tier list '" +
                                       std::string(text) +
                                       "' (tiers are A, P, B, C, D)");
    }
  }
  if (tiers == 0) {
    return Status::InvalidArgument("empty tier list (tiers are A, P, B, C, D)");
  }
  return tiers;
}

std::string TierLetters(Tiers tiers) {
  std::string out;
  if (tiers & kTierQuery) out += 'A';
  if (tiers & kTierPlan) out += 'P';
  if (tiers & kTierLineage) out += 'B';
  if (tiers & kTierRaces) out += 'C';
  if (tiers & kTierResources) out += 'D';
  return out;
}

bool PlansAsOneBgp(const sparql::Query& query) {
  return (query.form == sparql::QueryForm::kSelect ||
          query.form == sparql::QueryForm::kAsk) &&
         query.where.IsPlainBgp() && !query.IsAggregate();
}

BgpEngineBase::BgpEngineBase(spark::SparkContext* sc) : sc_(sc) {
  // Engines are constructed on the driver before any pooled task can run,
  // and nothing in this process calls setenv, so these reads cannot race.
  // NOLINTBEGIN(concurrency-mt-unsafe)
  const char* env = std::getenv("RDFSPARK_VERIFY_PLANS");
  debug_check_plans_ = env != nullptr && env[0] != '\0';
  const char* qenv = std::getenv("RDFSPARK_VERIFY_QUERIES");
  debug_check_queries_ = qenv != nullptr && qenv[0] != '\0';
  const char* renv = std::getenv("RDFSPARK_CHECK_RACES");
  debug_check_races_ = renv != nullptr && renv[0] != '\0';
  // NOLINTEND(concurrency-mt-unsafe)
}

Result<sparql::BindingTable> BgpEngineBase::ExecuteText(
    std::string_view text) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  return Execute(query);
}

sparql::QueryAnalysisOptions BgpEngineBase::AnalysisOptions() const {
  sparql::QueryAnalysisOptions options;
  options.vertical_partitioned = VerifyProfile().vertical_partitioned;
  return options;
}

Status BgpEngineBase::RunAnalyzed(
    const plan::PlanNode& root, std::optional<spark::LineageGraph>* lineage) {
  plan::PlanExecutor executor(sc_, /*collect_actuals=*/true);
  // Results are discarded; the annotated plan (and lineage) is the output.
  RDFSPARK_RETURN_NOT_OK(executor.Run(root).status());
  if (lineage != nullptr) {
    std::vector<const spark::RddNodeBase*> roots;
    roots.reserve(executor.lineage_roots().size());
    for (const auto& node : executor.lineage_roots()) {
      roots.push_back(node.get());
    }
    lineage->emplace(spark::LineageGraph::Capture(roots));
  }
  return Status::OK();
}

Result<Inspection> BgpEngineBase::Inspect(const sparql::Query& query,
                                          Tiers tiers) {
  Inspection out;
  if (tiers & kTierQuery) {
    out.query_findings = sparql::AnalyzeQuery(query, AnalysisOptions());
  }
  if (tiers == kTierQuery) return out;  // Tier A never needs the plan.
  RDFSPARK_ASSIGN_OR_RETURN(out.plan, PlanBgp(query.where.bgp));
  if (tiers & kTierPlan) {
    out.plan_findings = plan::VerifyPlan(*out.plan, VerifyProfile());
  }
  if (tiers & kTierResources) {
    out.resources = AnalyzePlanResources(query, *out.plan);
  }
  if (!(tiers & (kTierLineage | kTierRaces | kTierResources))) return out;

  // The one analyzed run. Opening the recorder window resets it on the
  // driver with no tasks in flight, which is its quiescence contract.
  spark::hb::ScopedRaceCheck window((tiers & kTierRaces) != 0);
  Status ran = RunAnalyzed(*out.plan, &out.lineage);
  if (tiers & kTierRaces) {
    out.race_findings = window.owner() ? window.Finish()
                                       : spark::hb::Recorder::Get().Analyze();
  }
  RDFSPARK_RETURN_NOT_OK(ran);
  if (tiers & kTierLineage) out.lineage_findings = out.lineage->Analyze();
  if (tiers & kTierResources) {
    std::vector<plan::Diagnostic>& findings = out.resources->findings;
    for (auto& d : out.lineage->AnalyzeRetention()) {
      findings.push_back(std::move(d));
    }
    if (out.resources->bounded) {
      for (auto& d : plan::DriftFindings(out.resources->output_bytes,
                                         plan::ObserveFootprint(*out.plan))) {
        findings.push_back(std::move(d));
      }
    }
  }
  return out;
}

plan::ResourceAnalysis BgpEngineBase::AnalyzePlanResources(
    const sparql::Query& query, const plan::PlanNode& root,
    uint64_t cluster_budget_bytes) const {
  plan::ResourceProfile profile =
      plan::ResourceProfile::FromCluster(sc_->config(), VerifyProfile());
  profile.sort_at_root = query.distinct || !query.order_by.empty();
  if (cluster_budget_bytes != 0) {
    profile.cluster_budget_bytes = cluster_budget_bytes;
  }
  return plan::AnalyzeResources(root, profile);
}

Result<plan::PlanPtr> BgpEngineBase::PlanQuery(const sparql::Query& query) {
  if (!PlansAsOneBgp(query)) {
    return Status::Unsupported(
        "only SELECT/ASK over a plain BGP without aggregates plans through "
        "PlanQuery; group patterns evaluate recursively");
  }
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanBgp(query.where.bgp));
  if (debug_check_plans_) {
    Status verified = plan::VerifyForExecution(*root, VerifyProfile());
    if (!verified.ok()) return verified;
  }
  return root;
}

Result<sparql::BindingTable> BgpEngineBase::ExecutePlanned(
    const sparql::Query& query, const plan::PlanNode& root) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            plan::PlanExecutor(sc_).Run(root));
  if (query.form == sparql::QueryForm::kAsk) {
    sparql::BindingTable out;
    if (table.num_rows() > 0) out.AddRow({});
    return out;
  }
  return ApplyModifiers(query, std::move(table), dictionary());
}

Result<plan::PlanPtr> BgpEngineBase::ExecuteAnalyzed(
    const sparql::Query& query) {
  // Like EXPLAIN, the analyzed run covers the top-level basic graph
  // pattern — the distributed part whose actuals are worth attributing.
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanBgp(query.where.bgp));
  RDFSPARK_RETURN_NOT_OK(RunAnalyzed(*root, nullptr));
  return root;
}

plan::EngineProfile BgpEngineBase::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits().name;
  return profile;
}

Result<sparql::BindingTable> BgpEngineBase::EvaluateBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanBgp(bgp));
  if (debug_check_plans_) {
    Status verified = plan::VerifyForExecution(*root, VerifyProfile());
    if (!verified.ok()) return verified;
  }
  return plan::PlanExecutor(sc_).Run(*root);
}

Result<sparql::BindingTable> BgpEngineBase::EvaluateGroup(
    const sparql::GroupPattern& group) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            EvaluateBgp(group.bgp));
  for (const auto& alternatives : group.unions) {
    sparql::BindingTable united;
    bool first = true;
    for (const auto& alt : alternatives) {
      RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable t, EvaluateGroup(alt));
      united = first ? std::move(t) : UnionTables(united, t);
      first = false;
    }
    table = HashJoin(table, united);
  }
  for (const auto& opt : group.optionals) {
    RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable t, EvaluateGroup(opt));
    table = LeftJoin(table, t);
  }
  for (const auto& filter : group.filters) {
    table = ApplyFilter(table, *filter, dictionary());
  }
  return table;
}

Result<sparql::BindingTable> BgpEngineBase::Execute(
    const sparql::Query& query) {
  if (query.form == sparql::QueryForm::kConstruct ||
      query.form == sparql::QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "CONSTRUCT/DESCRIBE produce triples; use the ExecuteConstruct / "
        "ExecuteDescribe helpers");
  }
  if (traits().fragment == SparqlFragment::kBgp &&
      (!query.where.IsPlainBgp() || query.IsAggregate())) {
    return Status::Unsupported(
        traits().name +
        " supports the BGP fragment only (no FILTER/OPTIONAL/UNION/"
        "aggregates)");
  }
  if (debug_check_queries_) {
    std::vector<plan::Diagnostic> errors =
        plan::ErrorsOnly(sparql::AnalyzeQuery(query, AnalysisOptions()));
    if (!errors.empty()) {
      return Status::InvalidArgument("query analysis failed:\n" +
                                     plan::FormatDiagnostics(errors));
    }
  }
  // Tier C gate (RDFSPARK_CHECK_RACES): record every shared-object access
  // this execution makes and fail on unordered conflicting pairs. When an
  // outer window is active (serving layer, lint tool), owner() is false
  // and the gate defers to it — mirroring the verify_queries takeover.
  spark::hb::ScopedRaceCheck race_check(debug_check_races_);
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            EvaluateGroup(query.where));
  if (race_check.owner()) {
    std::vector<plan::Diagnostic> findings = race_check.Finish();
    if (plan::HasError(findings)) {
      return Status::InvalidArgument("race check failed:\n" +
                                     plan::FormatDiagnostics(findings));
    }
  }
  if (query.form == sparql::QueryForm::kAsk) {
    sparql::BindingTable out;
    if (table.num_rows() > 0) out.AddRow({});
    return out;
  }
  // Solution modifiers run "with the Spark API" driver-side, as the
  // surveyed systems implement them.
  return ApplyModifiers(query, std::move(table), dictionary());
}

Result<std::vector<rdf::Triple>> ExecuteConstruct(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query) {
  if (query.form != sparql::QueryForm::kConstruct) {
    return Status::InvalidArgument("not a CONSTRUCT query");
  }
  sparql::Query select = query;
  select.form = sparql::QueryForm::kSelect;
  select.construct_template.clear();
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            engine->Execute(select));
  return sparql::InstantiateTemplate(query.construct_template, table,
                                     store.dictionary());
}

Result<std::vector<rdf::Triple>> ExecuteDescribe(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query) {
  if (query.form != sparql::QueryForm::kDescribe) {
    return Status::InvalidArgument("not a DESCRIBE query");
  }
  std::vector<rdf::TermId> resources;
  bool has_vars = false;
  for (const auto& target : query.describe_targets) {
    if (target.is_variable()) {
      has_vars = true;
    } else {
      auto id = store.dictionary().Lookup(target.term());
      if (id.ok()) resources.push_back(*id);
    }
  }
  if (has_vars) {
    sparql::Query select = query;
    select.form = sparql::QueryForm::kSelect;
    select.describe_targets.clear();
    RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                              engine->Execute(select));
    for (const auto& target : query.describe_targets) {
      if (!target.is_variable()) continue;
      int idx = table.VarIndex(target.var());
      if (idx < 0) continue;
      for (const auto& row : table.rows()) {
        rdf::TermId id = row[static_cast<size_t>(idx)];
        if (id != sparql::kUnbound) resources.push_back(id);
      }
    }
  }
  return sparql::DescribeResources(resources, store);
}

std::vector<std::unique_ptr<BgpEngineBase>> MakeAllEngines(
    spark::SparkContext* sc) {
  std::vector<std::unique_ptr<BgpEngineBase>> engines;
  engines.push_back(std::make_unique<HaqwaEngine>(sc));       // [7]
  engines.push_back(std::make_unique<SparqlgxEngine>(sc));    // [13]
  engines.push_back(std::make_unique<S2rdfEngine>(sc));       // [24]
  engines.push_back(std::make_unique<HybridEngine>(sc));      // [21]
  engines.push_back(std::make_unique<S2xEngine>(sc));         // [23]
  engines.push_back(std::make_unique<GraphxSmEngine>(sc));    // [16]
  engines.push_back(std::make_unique<SparkqlEngine>(sc));     // [12]
  engines.push_back(std::make_unique<GraphFramesEngine>(sc));  // [4]
  engines.push_back(std::make_unique<SparkRdfEngine>(sc));    // [5]
  return engines;
}

std::vector<EngineVariantFactory> AllEngineVariantFactories() {
  using spark::SparkContext;
  std::vector<EngineVariantFactory> out;
  out.push_back({"HAQWA", [](SparkContext* sc) {
                   return std::make_unique<HaqwaEngine>(sc);
                 }});
  out.push_back({"SPARQLGX", [](SparkContext* sc) {
                   return std::make_unique<SparqlgxEngine>(sc);
                 }});
  out.push_back({"S2RDF", [](SparkContext* sc) {
                   return std::make_unique<S2rdfEngine>(sc);
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
  out.push_back({"SparkRDF", [](SparkContext* sc) {
                   return std::make_unique<SparkRdfEngine>(sc);
                 }});
  return out;
}

}  // namespace rdfspark::systems
