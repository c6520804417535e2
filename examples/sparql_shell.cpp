// An interactive SPARQL shell over any of the twelve engine variants.
//
//   $ ./sparql_shell data.nt [engine]
//   sparql> SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }
//   sparql>                                   (blank line executes)
//
// Engines are the variant names every tool uses (systems::
// AllEngineVariantFactories(), matched case-insensitively; `.engines`
// lists them; default: S2RDF).
// Dot-commands: .engines .metrics .stats .explain .lint .lineage
// .analyze .profile .trace .quit
// `.metrics prom` prints the same Metrics snapshot in Prometheus text
// exposition format (what a scrape of the serving layer would see).
// `.explain` prints the engine's physical plan (EXPLAIN) for the query
// currently buffered at the prompt, without executing it.
// `.lint [tiers]` runs the dataflow lint over the buffered query, with the
// tier alphabet dataflow_lint uses: A (QA rules, pure AST), P (plan
// verifier SC/CP/BC/ST/VP rules, pure), B (lineage LN rules), C (races,
// RC/DT rules, see spark/hb.h) and D (resource envelope RS rules +
// per-stage byte envelope, see systems/plan/resource.h). B, C and D share
// one execution of the query's BGP. With no argument all five tiers run;
// `.lint A,P,D` (or `.lint apd`) selects a subset.
// `.lineage` *executes* the buffered query's BGP, snapshots the RDD
// lineage DAG it built, and prints the lineage analyzer's findings
// (LN rules: uncached reuse, redundant shuffle, deep shuffle chains)
// followed by a Graphviz DOT export of the DAG.
// `.analyze` *executes* the buffered query with per-operator actuals
// collection and prints EXPLAIN ANALYZE (estimated vs actual rows,
// estimate error, per-node runtime counters).
// `.profile` prints the tracer's compact text timeline of everything run
// so far (enable with `.trace on` first).
// `.trace on|off|<file.json>` toggles runtime tracing or exports the
// collected spans as Chrome chrome://tracing JSON to <file.json>.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "obs/prometheus.h"
#include "rdf/ntriples.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/plan/analyze.h"

namespace {

using namespace rdfspark;

/// The variant whose name matches `name` case-insensitively, or null.
std::unique_ptr<systems::BgpEngineBase> MakeEngine(const std::string& name,
                                                   spark::SparkContext* sc) {
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    if (AsciiToLower(factory.name) == AsciiToLower(name)) {
      return factory.make(sc);
    }
  }
  return nullptr;
}

std::string EngineNames() {
  std::string out;
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    if (!out.empty()) out += ' ';
    out += factory.name;
  }
  return out;
}

/// Parses the buffered query and inspects it for `tiers`; prints and
/// returns nullopt on failure.
std::optional<systems::Inspection> InspectPending(
    systems::BgpEngineBase* engine, const std::string& pending,
    systems::Tiers tiers) {
  auto query = sparql::ParseQuery(pending);
  auto inspected = query.ok() ? engine->Inspect(*query, tiers)
                              : Result<systems::Inspection>(query.status());
  if (!inspected.ok()) {
    std::printf("error: %s\n", inspected.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(inspected).value();
}

void RunQuery(systems::BgpEngineBase* engine, const rdf::TripleStore& store,
              const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  auto before = engine->context()->metrics();
  // CONSTRUCT/DESCRIBE output triples; SELECT/ASK output bindings.
  if (parsed->form == sparql::QueryForm::kConstruct ||
      parsed->form == sparql::QueryForm::kDescribe) {
    auto triples =
        parsed->form == sparql::QueryForm::kConstruct
            ? systems::ExecuteConstruct(engine, store, *parsed)
            : systems::ExecuteDescribe(engine, store, *parsed);
    auto delta = engine->context()->metrics() - before;
    if (!triples.ok()) {
      std::printf("error: %s\n", triples.status().ToString().c_str());
      return;
    }
    size_t shown = 0;
    for (const auto& t : *triples) {
      if (shown++ >= 40) {
        std::printf("... (%zu triples total)\n", triples->size());
        break;
      }
      std::printf("%s\n", t.ToNTriples().c_str());
    }
    std::printf("-- %zu triples; %llu shuffled records, %.3f sim ms\n",
                triples->size(),
                static_cast<unsigned long long>(delta.shuffle_records),
                delta.simulated_ms.ms());
    return;
  }
  auto result = engine->Execute(*parsed);
  auto delta = engine->context()->metrics() - before;
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", result->ToString(store.dictionary(), 40).c_str());
  std::printf("-- %llu rows; %llu shuffled records, %llu tasks, %.3f sim ms\n",
              static_cast<unsigned long long>(result->num_rows()),
              static_cast<unsigned long long>(delta.shuffle_records),
              static_cast<unsigned long long>(delta.tasks),
              delta.simulated_ms.ms());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <data.nt> [engine]\nengines: %s\n", argv[0],
                 EngineNames().c_str());
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto triples = rdf::ParseNTriplesDocument(buffer.str());
  if (!triples.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 triples.status().ToString().c_str());
    return 1;
  }
  rdf::TripleStore store;
  store.AddAll(*triples);
  store.Dedupe();

  spark::ClusterConfig cluster;
  cluster.num_executors = 4;
  cluster.default_parallelism = 8;
  spark::SparkContext sc(cluster);
  std::string engine_name = argc > 2 ? argv[2] : "S2RDF";
  auto engine = MakeEngine(engine_name, &sc);
  if (!engine) {
    std::fprintf(stderr, "unknown engine '%s' (engines: %s)\n",
                 engine_name.c_str(), EngineNames().c_str());
    return 2;
  }
  auto load = engine->Load(store);
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 load.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu triples loaded into %s (%.1f ms, %llu stored records)\n",
              store.size(), engine->traits().name.c_str(), load->wall_ms,
              static_cast<unsigned long long>(load->stored_records));
  std::printf(
      "enter a SPARQL query, blank line to run; .explain/.lint/.lineage/"
      ".analyze to inspect the buffered query; .trace on + .profile for "
      "timelines; .quit to exit\n");

  std::string pending;
  std::string line;
  std::printf("sparql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(TrimWhitespace(line));
    if (trimmed == ".quit" || trimmed == ".exit") break;
    bool inspects = trimmed == ".explain" || trimmed == ".lint" ||
                    trimmed.rfind(".lint ", 0) == 0 ||
                    trimmed == ".lineage" || trimmed == ".analyze";
    if (trimmed == ".engines") {
      std::printf("%s\n", EngineNames().c_str());
    } else if (inspects && TrimWhitespace(pending).empty()) {
      std::printf("usage: type a query first (don't run it), then %s\n",
                  trimmed.c_str());
    } else if (trimmed == ".explain") {
      if (auto inspected = InspectPending(engine.get(), pending, 0)) {
        std::printf("%s", systems::plan::Explain(*inspected->plan).c_str());
      }
    } else if (trimmed == ".lint" || trimmed.rfind(".lint ", 0) == 0) {
      // `.lint` runs every tier; `.lint A,P,D` (or `.lint apd`) a subset.
      std::string arg(TrimWhitespace(trimmed.substr(5)));
      auto tiers = arg.empty() ? Result<systems::Tiers>(systems::kAllTiers)
                               : systems::ParseTiers(arg);
      if (!tiers.ok()) {
        std::printf("usage: .lint [tiers], e.g. `.lint A,P,D`; tiers are "
                    "A (query), P (plan), B (lineage), C (races), "
                    "D (resources)\n");
      } else if (auto inspected =
                     InspectPending(engine.get(), pending, *tiers)) {
        std::vector<systems::plan::Diagnostic> diags;
        for (auto* tier :
             {&inspected->query_findings, &inspected->plan_findings,
              &inspected->lineage_findings, &inspected->race_findings}) {
          for (auto& d : *tier) diags.push_back(std::move(d));
        }
        std::string envelope;
        if (inspected->resources) {
          for (auto& d : inspected->resources->findings) {
            diags.push_back(std::move(d));
          }
          envelope = systems::plan::RenderEnvelope(*inspected->resources);
        }
        std::printf("%s%s",
                    systems::plan::RenderDiagnostics(std::move(diags)).c_str(),
                    envelope.c_str());
      }
    } else if (trimmed == ".lineage") {
      if (auto inspected = InspectPending(engine.get(), pending,
                                          systems::kTierLineage)) {
        if (inspected->lineage->nodes().empty()) {
          std::printf("no RDD-backed lineage (engine executes through "
                      "another abstraction)\n");
        } else {
          std::printf("%s%s",
                      systems::plan::RenderDiagnostics(
                          std::move(inspected->lineage_findings))
                          .c_str(),
                      inspected->lineage->ToDot().c_str());
        }
      }
    } else if (trimmed == ".analyze") {
      auto query = sparql::ParseQuery(pending);
      auto analyzed = query.ok()
                          ? engine->ExecuteAnalyzed(*query)
                          : Result<systems::plan::PlanPtr>(query.status());
      if (analyzed.ok()) {
        std::printf("%s", systems::plan::ExplainAnalyze(**analyzed).c_str());
      } else {
        std::printf("error: %s\n", analyzed.status().ToString().c_str());
      }
    } else if (trimmed == ".profile") {
      if (sc.tracer().event_count() == 0) {
        std::printf("no spans recorded; `.trace on` then run a query\n");
      } else {
        std::printf("%s", sc.tracer().ToTimelineText().c_str());
      }
    } else if (trimmed == ".trace on") {
      sc.tracer().set_enabled(true);
      std::printf("tracing enabled\n");
    } else if (trimmed == ".trace off") {
      sc.tracer().set_enabled(false);
      std::printf("tracing disabled (%zu spans buffered)\n",
                  sc.tracer().event_count());
    } else if (trimmed.rfind(".trace ", 0) == 0) {
      std::string path(TrimWhitespace(trimmed.substr(7)));
      std::ofstream out(path);
      if (!out) {
        std::printf("cannot write %s\n", path.c_str());
      } else {
        out << sc.tracer().ToChromeTraceJson();
        std::printf("wrote %zu spans to %s (open in chrome://tracing)\n",
                    sc.tracer().event_count(), path.c_str());
      }
    } else if (trimmed == ".metrics") {
      std::printf("%s\n", sc.metrics().ToString().c_str());
    } else if (trimmed == ".metrics prom") {
      // Prometheus text exposition of the same snapshot (the serving
      // layer's scrape format; see obs/prometheus.h).
      std::printf("%s", obs::ExpositionForMetrics(sc.metrics(), "rdfspark_")
                            .c_str());
    } else if (trimmed == ".stats") {
      auto stats = store.ComputeStatistics();
      std::printf(
          "triples=%llu subjects=%llu predicates=%llu objects=%llu\n",
          static_cast<unsigned long long>(stats.num_triples),
          static_cast<unsigned long long>(stats.distinct_subjects),
          static_cast<unsigned long long>(stats.distinct_predicates),
          static_cast<unsigned long long>(stats.distinct_objects));
    } else if (trimmed.empty()) {
      if (!TrimWhitespace(pending).empty()) {
        RunQuery(engine.get(), store, pending);
      }
      pending.clear();
    } else {
      pending += line;
      pending += '\n';
    }
    std::printf("sparql> ");
    std::fflush(stdout);
  }
  // Run any trailing query on EOF.
  if (!TrimWhitespace(pending).empty()) {
    std::printf("\n");
    RunQuery(engine.get(), store, pending);
  }
  return 0;
}
