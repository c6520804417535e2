#include "evaluator.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "sparql/id_table.h"

namespace lubmbench {

using rdfspark::Result;
using rdfspark::Status;
using rdfspark::rdf::TermId;
namespace sparql = rdfspark::sparql;

namespace {

/// Intermediate solutions: column names and a flat row-major id buffer.
struct Table {
  std::vector<std::string> vars;
  std::vector<TermId> cells;

  size_t width() const { return vars.size(); }
  size_t rows() const { return width() == 0 ? unit_rows : cells.size() / width(); }
  int Index(const std::string& var) const {
    auto it = std::find(vars.begin(), vars.end(), var);
    return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
  }
  /// Row count of a zero-width table (the join identity has one row).
  size_t unit_rows = 0;
};

struct KeyHash {
  size_t operator()(const std::vector<TermId>& key) const {
    uint64_t h = 1469598103934665603ull;
    for (TermId v : key) h = (h ^ v) * 1099511628211ull;
    return static_cast<size_t>(h);
  }
};

/// Natural join on the shared columns; a cartesian product when none.
Table Join(const Table& a, const Table& b) {
  std::vector<std::pair<int, int>> shared;  // (column in a, column in b)
  std::vector<int> b_only;
  for (size_t j = 0; j < b.width(); ++j) {
    int i = a.Index(b.vars[j]);
    if (i >= 0) {
      shared.emplace_back(i, static_cast<int>(j));
    } else {
      b_only.push_back(static_cast<int>(j));
    }
  }
  Table out;
  out.vars = a.vars;
  for (int j : b_only) out.vars.push_back(b.vars[static_cast<size_t>(j)]);
  std::unordered_map<std::vector<TermId>, std::vector<size_t>, KeyHash> index;
  std::vector<TermId> key(shared.size());
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t k = 0; k < shared.size(); ++k) {
      key[k] = b.cells[r * b.width() + static_cast<size_t>(shared[k].second)];
    }
    index[key].push_back(r);
  }
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = 0; k < shared.size(); ++k) {
      key[k] = a.cells[r * a.width() + static_cast<size_t>(shared[k].first)];
    }
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (size_t br : it->second) {
      out.cells.insert(out.cells.end(), a.cells.begin() + r * a.width(),
                       a.cells.begin() + (r + 1) * a.width());
      for (int j : b_only) {
        out.cells.push_back(b.cells[br * b.width() + static_cast<size_t>(j)]);
      }
    }
  }
  if (out.width() == 0) out.unit_rows = a.rows() * b.rows();
  return out;
}

/// Decodes ids once per evaluation.
class TermCache {
 public:
  TermCache(const rdfspark::rdf::Dictionary& dict,
            const sparql::BindingTable* table = nullptr)
      : dict_(dict), table_(table) {}

  const std::optional<rdfspark::rdf::Term>& Term(TermId id) {
    auto [it, inserted] = terms_.try_emplace(id);
    if (inserted && id != sparql::kUnbound) {
      auto t = table_ ? table_->ResolveTerm(id, dict_) : dict_.Decode(id);
      if (t.ok()) it->second = *t;
    }
    return it->second;
  }

  /// N-Triples form, "" for unbound; false when the id does not decode.
  bool String(TermId id, std::string* out) {
    if (id == sparql::kUnbound) {
      out->clear();
      return true;
    }
    const auto& t = Term(id);
    if (!t) return false;
    *out = t->ToNTriples();
    return true;
  }

 private:
  const rdfspark::rdf::Dictionary& dict_;
  const sparql::BindingTable* table_;
  std::unordered_map<TermId, std::optional<rdfspark::rdf::Term>> terms_;
};

/// SPARQL's effective boolean value of a FILTER; an evaluation error is
/// false, as the spec prescribes for FILTER.
class FilterEval {
 public:
  FilterEval(const Table& table, size_t row, TermCache* terms)
      : table_(table), row_(row), terms_(terms) {}

  std::optional<bool> Bool(const sparql::FilterExpr& e) {
    switch (e.op) {
      case sparql::ExprOp::kAnd: {
        auto l = Bool(*e.children[0]);
        auto r = Bool(*e.children[1]);
        if (l == false || r == false) return false;
        if (!l || !r) return std::nullopt;
        return true;
      }
      case sparql::ExprOp::kOr: {
        auto l = Bool(*e.children[0]);
        auto r = Bool(*e.children[1]);
        if (l == true || r == true) return true;
        if (!l || !r) return std::nullopt;
        return false;
      }
      case sparql::ExprOp::kNot: {
        auto v = Bool(*e.children[0]);
        if (!v) return std::nullopt;
        return !*v;
      }
      case sparql::ExprOp::kBound:
        return Value(e).has_value();
      case sparql::ExprOp::kVar:
      case sparql::ExprOp::kLiteral:
        return std::nullopt;
      default:
        return Compare(e);
    }
  }

 private:
  std::optional<rdfspark::rdf::Term> Value(const sparql::FilterExpr& e) {
    if (e.op == sparql::ExprOp::kLiteral) return e.literal;
    int col = table_.Index(e.var);
    if (col < 0) return std::nullopt;
    TermId id = table_.cells[row_ * table_.width() + static_cast<size_t>(col)];
    return terms_->Term(id);
  }

  std::optional<bool> Compare(const sparql::FilterExpr& e) {
    auto l = Value(*e.children[0]);
    auto r = Value(*e.children[1]);
    if (!l || !r) return std::nullopt;
    auto ln = l->AsNumber();
    auto rn = r->AsNumber();
    int cmp = 0;
    if (ln.ok() && rn.ok()) {
      cmp = *ln < *rn ? -1 : (*ln > *rn ? 1 : 0);
    } else if (e.op == sparql::ExprOp::kEq || e.op == sparql::ExprOp::kNe) {
      cmp = *l == *r ? 0 : 1;
    } else if (l->is_literal() && r->is_literal()) {
      cmp = l->lexical().compare(r->lexical());
    } else {
      return std::nullopt;
    }
    switch (e.op) {
      case sparql::ExprOp::kEq: return cmp == 0;
      case sparql::ExprOp::kNe: return cmp != 0;
      case sparql::ExprOp::kLt: return cmp < 0;
      case sparql::ExprOp::kLe: return cmp <= 0;
      case sparql::ExprOp::kGt: return cmp > 0;
      case sparql::ExprOp::kGe: return cmp >= 0;
      default: return std::nullopt;
    }
  }

  const Table& table_;
  size_t row_;
  TermCache* terms_;
};

/// Sorts `vars` and permutes each row's columns to match, then sorts rows.
Answer SortedAnswer(std::vector<std::string> vars,
                    std::vector<std::vector<std::string>> rows) {
  std::vector<size_t> perm(vars.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(),
            [&](size_t a, size_t b) { return vars[a] < vars[b]; });
  Answer out;
  for (size_t i : perm) out.vars.push_back(vars[i]);
  out.rows.reserve(rows.size());
  for (auto& row : rows) {
    std::vector<std::string> permuted;
    permuted.reserve(perm.size());
    for (size_t i : perm) permuted.push_back(std::move(row[i]));
    out.rows.push_back(std::move(permuted));
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

}  // namespace

Result<Answer> Canonicalize(const sparql::BindingTable& table,
                            const rdfspark::rdf::Dictionary& dict) {
  TermCache terms(dict, &table);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(table.num_rows());
  for (sparql::IdSpan span : table.rows()) {
    std::vector<std::string> row(table.vars().size());
    for (size_t i = 0; i < row.size(); ++i) {
      if (!terms.String(span[i], &row[i])) {
        return Status::Internal("answer holds an id that does not decode");
      }
    }
    rows.push_back(std::move(row));
  }
  return SortedAnswer(table.vars(), std::move(rows));
}

std::string DiffAnswers(const Answer& expected, const Answer& actual) {
  if (expected.vars != actual.vars) return "projected variables differ";
  if (expected.rows.size() != actual.rows.size()) {
    return "expected " + std::to_string(expected.rows.size()) +
           " rows, got " + std::to_string(actual.rows.size());
  }
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    if (expected.rows[r] != actual.rows[r]) {
      std::string got;
      for (const auto& cell : actual.rows[r]) got += cell + " ";
      return "row " + std::to_string(r) + " differs: got " + got;
    }
  }
  return "";
}

ExpectedEvaluator::ExpectedEvaluator(const rdfspark::rdf::TripleStore& store)
    : store_(store) {
  for (const auto& t : store.triples()) {
    by_predicate_[t.p].emplace_back(t.s, t.o);
  }
}

Result<Answer> ExpectedEvaluator::Evaluate(const sparql::Query& query) const {
  const sparql::GroupPattern& where = query.where;
  if (query.form != sparql::QueryForm::kSelect || query.IsAggregate() ||
      !query.order_by.empty() || query.limit >= 0 || query.offset != 0 ||
      !where.optionals.empty() || !where.unions.empty()) {
    return Status::Unsupported("outside the evaluator's fragment");
  }
  const auto& dict = store_.dictionary();

  // One table per pattern: its rows bind the pattern's distinct variables.
  std::vector<Table> scans;
  for (const auto& tp : where.bgp) {
    const sparql::PatternTerm* slots[3] = {&tp.s, &tp.p, &tp.o};
    TermId constant[3] = {0, 0, 0};
    bool impossible = false;
    Table scan;
    int column[3] = {-1, -1, -1};
    for (int i = 0; i < 3; ++i) {
      if (slots[i]->is_variable()) {
        int existing = scan.Index(slots[i]->var());
        if (existing < 0) {
          existing = static_cast<int>(scan.vars.size());
          scan.vars.push_back(slots[i]->var());
        }
        column[i] = existing;
      } else {
        auto id = dict.Lookup(slots[i]->term());
        if (!id.ok()) {
          impossible = true;
        } else {
          constant[i] = *id;
        }
      }
    }
    auto emit = [&](TermId s, TermId p, TermId o) {
      TermId v[3] = {s, p, o};
      for (int i = 0; i < 3; ++i) {
        if (column[i] < 0 && v[i] != constant[i]) return;
      }
      std::vector<TermId> row(scan.width(), sparql::kUnbound);
      for (int i = 0; i < 3; ++i) {
        if (column[i] < 0) continue;
        TermId& cell = row[static_cast<size_t>(column[i])];
        if (cell != sparql::kUnbound && cell != v[i]) return;
        cell = v[i];
      }
      scan.cells.insert(scan.cells.end(), row.begin(), row.end());
    };
    if (!impossible) {
      if (column[1] < 0) {
        auto it = by_predicate_.find(constant[1]);
        if (it != by_predicate_.end()) {
          for (const auto& [s, o] : it->second) emit(s, constant[1], o);
        }
      } else {
        for (const auto& t : store_.triples()) emit(t.s, t.p, t.o);
      }
    }
    if (scan.width() == 0) {
      // A fully constant pattern matches iff the triple exists.
      scan.unit_rows =
          !impossible && store_.Contains({constant[0], constant[1], constant[2]})
              ? 1
              : 0;
    }
    scans.push_back(std::move(scan));
  }

  // Greedy order: smallest scan first, then the smallest scan sharing a
  // variable with what is already joined (a cartesian step only when none
  // does).
  Table acc;
  acc.unit_rows = 1;
  std::vector<bool> used(scans.size(), false);
  for (size_t step = 0; step < scans.size(); ++step) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < scans.size(); ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const auto& v : scans[i].vars) connected |= acc.Index(v) >= 0;
      bool better = best < 0 || (connected && !best_connected) ||
                    (connected == best_connected &&
                     scans[i].rows() < scans[static_cast<size_t>(best)].rows());
      if (better) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    used[static_cast<size_t>(best)] = true;
    acc = Join(acc, scans[static_cast<size_t>(best)]);
  }

  TermCache terms(dict);
  std::vector<std::string> projection = query.EffectiveProjection();
  std::vector<int> columns;
  for (const auto& v : projection) columns.push_back(acc.Index(v));
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < acc.rows(); ++r) {
    bool keep = true;
    for (const auto& f : where.filters) {
      if (FilterEval(acc, r, &terms).Bool(*f) != true) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    std::vector<std::string> row(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      TermId id = columns[i] < 0
                      ? sparql::kUnbound
                      : acc.cells[r * acc.width() + static_cast<size_t>(columns[i])];
      if (!terms.String(id, &row[i])) {
        return Status::Internal("dataset id does not decode");
      }
    }
    rows.push_back(std::move(row));
  }
  if (query.distinct) {
    std::set<std::vector<std::string>> unique(rows.begin(), rows.end());
    rows.assign(unique.begin(), unique.end());
  }
  return SortedAnswer(std::move(projection), std::move(rows));
}

}  // namespace lubmbench
