// Self-test of the benchmark's expected-answer evaluator: it must agree
// with sparql::ReferenceEvaluator on all 18 LUBM queries at 1 university,
// and the answer comparison must reject a corrupted answer.
//
//   python3 lubmbench/run.py --self-test

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "evaluator.h"
#include "rdf/generator.h"
#include "rdf/rdfs.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace {

using namespace rdfspark;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

}  // namespace

int main() {
  rdf::LubmConfig cfg;
  cfg.num_universities = 1;
  rdf::TripleStore store;
  store.AddAll(rdf::GenerateLubm(cfg));
  store.AddAll(rdf::LubmSchema());
  store.Dedupe();
  rdf::MaterializeRdfs(&store);

  std::vector<std::pair<std::string, std::string>> queries =
      rdf::LubmBenchmarkQueries();
  for (const auto& [shape, text] : rdf::LubmQueryMix()) {
    queries.emplace_back(rdf::QueryShapeName(shape), text);
  }

  sparql::ReferenceEvaluator reference(&store);
  lubmbench::ExpectedEvaluator expected(store);
  lubmbench::Answer sample;
  for (const auto& [name, text] : queries) {
    auto query = sparql::ParseQuery(text);
    Expect(query.ok(), name + " parses");
    if (!query.ok()) continue;
    auto ref = reference.Evaluate(*query);
    auto mine = expected.Evaluate(*query);
    Expect(ref.ok() && mine.ok(), name + " evaluates");
    if (!ref.ok() || !mine.ok()) continue;
    auto ref_answer = lubmbench::Canonicalize(*ref, store.dictionary());
    Expect(ref_answer.ok(), name + " reference answer decodes");
    if (!ref_answer.ok()) continue;
    std::string diff = lubmbench::DiffAnswers(*ref_answer, *mine);
    Expect(diff.empty(), name + ": " + diff);
    Expect(!mine->rows.empty(), name + " has a non-empty answer");
    std::printf("%-10s %6zu rows  %s\n", name.c_str(), mine->rows.size(),
                diff.empty() ? "agrees" : "DIFFERS");
    if (mine->rows.size() > sample.rows.size()) sample = *mine;
  }

  // The comparison must catch a dropped row and a changed cell.
  lubmbench::Answer dropped = sample;
  dropped.rows.pop_back();
  Expect(!lubmbench::DiffAnswers(sample, dropped).empty(),
         "a dropped row is detected");
  lubmbench::Answer changed = sample;
  changed.rows.front().front() += "x";
  Expect(!lubmbench::DiffAnswers(sample, changed).empty(),
         "a changed cell is detected");

  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
