#ifndef RDFSPARK_SYSTEMS_ENGINE_H_
#define RDFSPARK_SYSTEMS_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "spark/lineage.h"
#include "sparql/analysis.h"
#include "sparql/ast.h"
#include "sparql/binding.h"
#include "systems/plan/plan.h"
#include "systems/plan/resource.h"
#include "systems/plan/verifier.h"

namespace rdfspark::systems {

/// Sound output cap of one triple-pattern scan, from dataset statistics:
/// the scan cannot yield more rows than the base relation it reads (the
/// predicate's VP table, or the whole triple relation for a predicate
/// variable), tightened by the predicate's max subject/object degree when
/// the pattern binds that position. Engines annotate
/// PlanNode::max_cardinality with this so Tier D envelopes stay bounded
/// even where selectivity estimates under-shoot.
uint64_t PatternScanBound(const rdf::Dictionary& dict,
                          const rdf::DatasetStatistics& stats,
                          const sparql::TriplePattern& tp);

/// Sound output cap of a same-subject star match over `patterns`: rows =
/// sum over subjects of the product of per-pattern multiplicities, bounded
/// by min over i of bound(p_i) x prod over j != i of max_subject_degree(p_j)
/// (functional predicates contribute factor 1, so FK-style stars stay near
/// the smallest pattern's bound).
uint64_t StarScanBound(const rdf::Dictionary& dict,
                       const rdf::DatasetStatistics& stats,
                       const std::vector<sparql::TriplePattern>& patterns);

/// The Spark data abstractions of Figure 1 / Table I.
enum class SparkAbstraction {
  kRdd,
  kDataFrames,
  kSparkSql,
  kGraphX,
  kGraphFrames,
};

const char* SparkAbstractionName(SparkAbstraction a);

/// The data-model dimension of Figure 1 / Table I.
enum class DataModel { kTriple, kGraph };

const char* DataModelName(DataModel m);

/// SPARQL fragment supported (Table II): plain basic graph patterns, or
/// BGP plus further operators (FILTER, OPTIONAL, UNION, modifiers).
enum class SparqlFragment { kBgp, kBgpPlus };

const char* SparqlFragmentName(SparqlFragment f);

/// Self-description of a system. Tables I and II and Figure 1 are generated
/// from these traits, so the taxonomy is program output rather than prose.
struct EngineTraits {
  std::string name;
  std::string citation;  // e.g. "[7] Cure et al., HAQWA, ISWC P&D 2015"
  DataModel data_model = DataModel::kTriple;
  std::vector<SparkAbstraction> abstractions;
  std::string query_processing;  // Table II column "Query Processing"
  bool has_optimization = false;
  std::string optimization_note;
  std::string partitioning;  // Table II column "Partitioning"
  SparqlFragment fragment = SparqlFragment::kBgp;
  std::string contribution;  // the System Contribution dimension (§III)
};

/// What Load() did: preprocessing cost and storage blow-up, reported by the
/// partitioning assessment benchmark.
struct LoadStats {
  double wall_ms = 0.0;
  uint64_t input_triples = 0;
  /// Stored records incl. replication / ExtVP sub-tables / indexes.
  uint64_t stored_records = 0;
  uint64_t stored_bytes = 0;
};

/// The dataflow-lint tiers, one letter each. `dataflow_lint --tier`,
/// sparql_shell's `.lint` and BgpEngineBase::Inspect share this alphabet.
enum Tier : unsigned {
  kTierQuery = 1u << 0,      ///< A: query analysis (QA rules), pure.
  kTierPlan = 1u << 1,       ///< P: plan verifier (SC/CP/BC/ST/VP), pure.
  kTierLineage = 1u << 2,    ///< B: RDD lineage (LN rules), executes.
  kTierRaces = 1u << 3,      ///< C: happens-before (RC/DT rules), executes.
  kTierResources = 1u << 4,  ///< D: resource envelope (RS rules), executes.
};
using Tiers = unsigned;
inline constexpr Tiers kAllTiers = kTierQuery | kTierPlan | kTierLineage |
                                   kTierRaces | kTierResources;

/// Parses a tier list such as "A,P,D" or "pd" (case-insensitive; ',' and
/// ' ' separate letters). InvalidArgument on any other character or on an
/// empty set.
Result<Tiers> ParseTiers(std::string_view text);

/// The letters of `tiers` in A, P, B, C, D order, e.g. "APBCD".
std::string TierLetters(Tiers tiers);

/// What Inspect returns: the typed pieces the plan:: renderers take
/// (Explain, ExplainAnalyze, RenderDiagnostics, RenderEnvelope,
/// LineageGraph::ToDot). Fields of tiers that were not asked for stay
/// empty.
struct Inspection {
  /// The plan of the query's top-level basic graph pattern (the
  /// distributed part; FILTER/OPTIONAL/UNION and modifiers run
  /// driver-side). Null when only tier A was asked for. After an
  /// executing tier (B, C or D) every node carries its actuals, exactly
  /// as from ExecuteAnalyzed.
  plan::PlanPtr plan;
  std::vector<plan::Diagnostic> query_findings;    ///< Tier A.
  std::vector<plan::Diagnostic> plan_findings;     ///< Tier P.
  /// The lineage DAG the analyzed run built (any of B, C, D). Engines
  /// whose payloads are not RDD-backed produce an empty graph.
  std::optional<spark::LineageGraph> lineage;
  std::vector<plan::Diagnostic> lineage_findings;  ///< Tier B.
  std::vector<plan::Diagnostic> race_findings;     ///< Tier C.
  /// Tier D: the plan's static byte envelope. Its findings also carry
  /// RS004 (retention over the lineage) and RS006 (drift of the envelope
  /// against the bytes the analyzed run materialized).
  std::optional<plan::ResourceAnalysis> resources;
};

/// The one engine interface. An engine is bound to a SparkContext (the
/// simulated cluster) and loads a dataset once; queries produce binding
/// tables over the dataset's dictionary so results can be cross-checked
/// against the reference evaluator.
///
/// Every system evaluates BGPs in a distributed fashion and (when its
/// fragment allows) runs the remaining operators with the "Spark API"
/// driver-side, as the surveyed systems do. Subclasses provide PlanBgp() —
/// their documented planning strategy expressed in the shared physical
/// algebra; Execute() plans, hands the plan to the shared PlanExecutor,
/// and handles fragment checking, group structure (FILTER/OPTIONAL/UNION)
/// and solution modifiers.
class BgpEngineBase {
 public:
  virtual ~BgpEngineBase() = default;

  virtual const EngineTraits& traits() const = 0;

  /// Ingests the dataset, building the engine's partitioning and index
  /// structures. `store` must outlive the engine.
  virtual Result<LoadStats> Load(const rdf::TripleStore& store) = 0;

  /// Executes a parsed query. Engines whose fragment is kBgp reject
  /// queries using FILTER/OPTIONAL/UNION or solution modifiers.
  Result<sparql::BindingTable> Execute(const sparql::Query& query);

  /// Parses and executes SPARQL text.
  Result<sparql::BindingTable> ExecuteText(std::string_view text);

  /// The inspection entry point behind EXPLAIN and every lint tier. Plans
  /// the query's basic graph pattern at most once (not at all for tier A
  /// alone) and executes it at most once: when B, C or D is asked for, one
  /// run with actuals collection supplies both the per-operator actuals
  /// and the lineage roots, inside a happens-before recorder window when C
  /// is asked for (an already active outer window is analyzed without
  /// being disturbed). With no tiers it returns just the plan (EXPLAIN).
  /// Charges metrics like a normal execution when it executes; the
  /// findings are byte-identical regardless of executor threading.
  Result<Inspection> Inspect(const sparql::Query& query, Tiers tiers);

  /// Pure planning entry point for the serving plan cache: plans the
  /// query's basic graph pattern without executing anything. Only queries
  /// PlansAsOneBgp accepts are plannable this way (groups with
  /// FILTER/OPTIONAL/UNION evaluate recursively and have no single
  /// cacheable plan) — anything else returns Unsupported and the caller
  /// falls through to Execute. When debug-check-plans is on, the plan is
  /// verified here, once, instead of on every cached execution.
  Result<plan::PlanPtr> PlanQuery(const sparql::Query& query);

  /// Executes a plan previously built by PlanQuery for `query`, then runs
  /// the driver-side tail exactly like Execute (ASK collapse, solution
  /// modifiers). With ReusablePlans() true the same plan may be executed
  /// repeatedly and from concurrent threads: execution reads the plan tree
  /// and charges metrics but never mutates the nodes.
  Result<sparql::BindingTable> ExecutePlanned(const sparql::Query& query,
                                              const plan::PlanNode& root);

  /// Whether plans built by PlanQuery survive execution and may be re-run
  /// (the plan-cache contract). S2X overrides to false: its plans consume
  /// shared match state on first execution.
  virtual bool ReusablePlans() const { return true; }

  /// Plans and executes `query`'s basic graph pattern with actuals
  /// collection, returning the analyzed plan: every node carries an
  /// OpStats (node->actuals) with its runtime counters and output rows —
  /// what plan::ExplainAnalyze renders. The serving layer's slow-query
  /// audit re-executes the request it just served this way.
  Result<plan::PlanPtr> ExecuteAnalyzed(const sparql::Query& query);

  /// The storage/layout facts the static verifier checks plans against
  /// (Table II's partitioning column as booleans + broadcast threshold).
  /// The base profile claims nothing, so unannotated engines verify
  /// vacuously; each engine overrides with its documented layout.
  virtual plan::EngineProfile VerifyProfile() const;

  /// Debug-check mode: when enabled, EvaluateBgp verifies every plan before
  /// the executor touches Spark state, and any ERROR-level finding fails
  /// the query with an InvalidArgument status. Defaults to the
  /// RDFSPARK_VERIFY_PLANS environment variable (set and non-empty).
  void set_debug_check_plans(bool enabled) { debug_check_plans_ = enabled; }

  /// Query-admission gate: when enabled, Execute runs the query analyzer
  /// (Tier A) first and any ERROR-level QA finding fails the query with an
  /// InvalidArgument status before planning or execution. Defaults to the
  /// RDFSPARK_VERIFY_QUERIES environment variable (set and non-empty).
  void set_debug_check_queries(bool enabled) { debug_check_queries_ = enabled; }

  /// Tier C gate: when enabled, Execute runs inside a happens-before
  /// recorder window (see spark/hb.h) and any ERROR-level RC/DT finding
  /// fails the query with an InvalidArgument status after execution.
  /// Defaults to the RDFSPARK_CHECK_RACES environment variable (set and
  /// non-empty). Owner semantics: when an outer window is already active
  /// (the serving layer or a lint tool holds the recorder), the per-Execute
  /// gate defers to the owner instead of resetting shared state under it.
  void set_debug_check_races(bool enabled) { debug_check_races_ = enabled; }

  /// Tier D analysis of an already-built plan for `query` — what the
  /// serving admission gate runs on cached plans (no planning, no
  /// execution). `cluster_budget_bytes` overrides the profile's derived
  /// cluster budget; 0 keeps the default.
  plan::ResourceAnalysis AnalyzePlanResources(
      const sparql::Query& query, const plan::PlanNode& root,
      uint64_t cluster_budget_bytes = 0) const;

  spark::SparkContext* context() const { return sc_; }

 protected:
  explicit BgpEngineBase(spark::SparkContext* sc);

  /// Builds this system's physical plan for one basic graph pattern.
  /// Planning must be pure: no Spark actions, no metrics charged — the
  /// same call backs both execution and EXPLAIN.
  virtual Result<plan::PlanPtr> PlanBgp(
      const std::vector<sparql::TriplePattern>& bgp) = 0;

  /// Distributed evaluation of one basic graph pattern: plan, then run
  /// through the shared executor.
  Result<sparql::BindingTable> EvaluateBgp(
      const std::vector<sparql::TriplePattern>& bgp);

  /// Dictionary of the loaded dataset (for filters/modifiers).
  virtual const rdf::Dictionary& dictionary() const = 0;

  Result<sparql::BindingTable> EvaluateGroup(
      const sparql::GroupPattern& group);

  spark::SparkContext* sc_;

 private:
  /// The QueryAnalysisOptions this engine's storage layout implies.
  sparql::QueryAnalysisOptions AnalysisOptions() const;

  /// Runs `root` with actuals collection; snapshots the run's lineage
  /// into `lineage` when non-null.
  Status RunAnalyzed(const plan::PlanNode& root,
                     std::optional<spark::LineageGraph>* lineage);

  bool debug_check_plans_ = false;
  bool debug_check_queries_ = false;
  bool debug_check_races_ = false;
};

/// Whether `query` plans as one basic graph pattern (PlanQuery's fragment):
/// a SELECT/ASK over a plain BGP without aggregates.
bool PlansAsOneBgp(const sparql::Query& query);

/// All nine engines, constructed against `sc`. Order matches Table II rows.
/// Callers own the engines; each needs Load() before use.
std::vector<std::unique_ptr<BgpEngineBase>> MakeAllEngines(
    spark::SparkContext* sc);

/// One constructible engine variant: the nine Table II systems with the
/// Hybrid engine expanded into its four studied modes — the 12 columns the
/// whole-matrix tools (dataflow_lint, query_profile), sparql_shell and the
/// serving layer all iterate over. Names are identifier-safe ('-' in
/// Hybrid mode names becomes '_').
struct EngineVariantFactory {
  std::string name;
  std::function<std::unique_ptr<BgpEngineBase>(spark::SparkContext*)> make;
};

/// The canonical 12-variant list, in Table II row order.
std::vector<EngineVariantFactory> AllEngineVariantFactories();

/// Runs a CONSTRUCT query through `engine` (distributed pattern matching,
/// driver-side template instantiation against `store`'s dictionary).
Result<std::vector<rdf::Triple>> ExecuteConstruct(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query);

/// Runs a DESCRIBE query through `engine`: the pattern (if any) resolves
/// variable targets distributedly; descriptions come from `store`.
Result<std::vector<rdf::Triple>> ExecuteDescribe(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query);

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_ENGINE_H_
