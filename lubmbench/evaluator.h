// Expected-answer evaluator of the benchmark, written apart from the
// engines and from sparql::ReferenceEvaluator: a hash-join BGP matcher over
// the store's triples with FILTER and DISTINCT, plus the canonical decoded
// form every engine answer is compared in.
#ifndef LUBMBENCH_EVALUATOR_H_
#define LUBMBENCH_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/store.h"
#include "sparql/ast.h"
#include "sparql/binding.h"

namespace lubmbench {

/// An answer as decoded, sorted rows: `vars` sorted by name, each row the
/// N-Triples form of the bindings in `vars` order ("" for unbound), rows
/// sorted. Bag semantics: duplicate rows are kept.
struct Answer {
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;

  bool operator==(const Answer&) const = default;
};

/// Decodes an engine's binding table against the dataset dictionary.
rdfspark::Result<Answer> Canonicalize(const rdfspark::sparql::BindingTable& table,
                                      const rdfspark::rdf::Dictionary& dict);

/// Empty when equal, else a one-line description of the first difference.
std::string DiffAnswers(const Answer& expected, const Answer& actual);

/// Evaluates SELECT queries whose WHERE clause is one basic graph pattern
/// with FILTERs (no OPTIONAL/UNION, aggregates or ORDER/LIMIT/OFFSET).
class ExpectedEvaluator {
 public:
  /// Indexes `store` by predicate. `store` must outlive the evaluator.
  explicit ExpectedEvaluator(const rdfspark::rdf::TripleStore& store);

  rdfspark::Result<Answer> Evaluate(
      const rdfspark::sparql::Query& query) const;

 private:
  using Pairs = std::vector<std::pair<rdfspark::rdf::TermId,
                                      rdfspark::rdf::TermId>>;

  const rdfspark::rdf::TripleStore& store_;
  std::unordered_map<rdfspark::rdf::TermId, Pairs> by_predicate_;
};

}  // namespace lubmbench

#endif  // LUBMBENCH_EVALUATOR_H_
