#include "spark/graphframes/graphframe.h"

#include <algorithm>

#include "common/string_util.h"

namespace rdfspark::spark::graphframes {

using sql::AggOp;
using sql::AggSpec;
using sql::Col;
using sql::DataFrame;
using sql::Expr;

Result<std::vector<MotifEdge>> ParseMotif(std::string_view pattern) {
  std::vector<MotifEdge> out;
  for (const std::string& raw : SplitString(pattern, ';')) {
    std::string_view element = TrimWhitespace(raw);
    if (element.empty()) continue;
    // Expected: (name)-[name]->(name), names optional.
    auto expect = [&](size_t pos, char c) {
      return pos < element.size() && element[pos] == c;
    };
    size_t i = 0;
    auto parse_delim = [&](char open, char close,
                           std::string* name) -> Status {
      if (!expect(i, open)) {
        return Status::ParseError("motif: expected '" + std::string(1, open) +
                                  "' in '" + std::string(element) + "'");
      }
      ++i;
      size_t end = element.find(close, i);
      if (end == std::string_view::npos) {
        return Status::ParseError("motif: missing '" + std::string(1, close) +
                                  "'");
      }
      *name = std::string(TrimWhitespace(element.substr(i, end - i)));
      i = end + 1;
      return Status::OK();
    };
    MotifEdge edge;
    RDFSPARK_RETURN_NOT_OK(parse_delim('(', ')', &edge.src));
    if (!expect(i, '-')) return Status::ParseError("motif: expected '-'");
    ++i;
    RDFSPARK_RETURN_NOT_OK(parse_delim('[', ']', &edge.edge));
    if (!(expect(i, '-') && expect(i + 1, '>'))) {
      return Status::ParseError("motif: expected '->'");
    }
    i += 2;
    RDFSPARK_RETURN_NOT_OK(parse_delim('(', ')', &edge.dst));
    if (i != element.size()) {
      return Status::ParseError("motif: trailing characters in '" +
                                std::string(element) + "'");
    }
    out.push_back(std::move(edge));
  }
  if (out.empty()) return Status::ParseError("motif: empty pattern");
  return out;
}

namespace {

/// Natural join on shared column names (the right copies are dropped).
DataFrame NaturalJoin(const DataFrame& left, const DataFrame& right) {
  std::vector<std::string> shared;
  for (const auto& f : right.schema().fields()) {
    if (left.schema().Index(f.name) >= 0) shared.push_back(f.name);
  }
  if (shared.empty()) return left.CrossJoin(right);
  // Rename shared right columns to temporaries, join, drop them.
  std::vector<std::string> rnames;
  for (const auto& f : right.schema().fields()) {
    bool is_shared =
        std::find(shared.begin(), shared.end(), f.name) != shared.end();
    rnames.push_back(is_shared ? "__rhs_" + f.name : f.name);
  }
  DataFrame renamed = right.Rename(rnames);
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& c : shared) keys.emplace_back(c, "__rhs_" + c);
  DataFrame joined = left.Join(renamed, keys);
  std::vector<std::string> keep;
  for (const auto& f : joined.schema().fields()) {
    if (!StartsWith(f.name, "__rhs_")) keep.push_back(f.name);
  }
  return joined.Select(keep);
}

}  // namespace

Result<sql::DataFrame> GraphFrame::FindMotif(
    std::string_view pattern, const MotifOptions& options) const {
  RDFSPARK_ASSIGN_OR_RETURN(std::vector<MotifEdge> motif,
                            ParseMotif(pattern));
  int anon_counter = 0;
  DataFrame result;
  std::vector<std::string> named_vertices;
  std::vector<std::string> vertex_filters_applied;
  auto apply_vertex_predicates = [&](DataFrame df) {
    for (const auto& [vertex, predicate] : options.vertex_predicates) {
      if (std::find(vertex_filters_applied.begin(),
                    vertex_filters_applied.end(),
                    vertex) != vertex_filters_applied.end()) {
        continue;
      }
      if (df.schema().Index(vertex) < 0) continue;
      df = df.Filter(predicate);
      vertex_filters_applied.push_back(vertex);
    }
    return df;
  };
  for (const MotifEdge& m : motif) {
    std::string src = m.src.empty()
                          ? "__anon" + std::to_string(anon_counter++)
                          : m.src;
    std::string dst = m.dst.empty()
                          ? "__anon" + std::to_string(anon_counter++)
                          : m.dst;
    for (const auto& v : {m.src, m.dst}) {
      if (!v.empty() && std::find(named_vertices.begin(),
                                  named_vertices.end(),
                                  v) == named_vertices.end()) {
        named_vertices.push_back(v);
      }
    }
    // Rename edge columns: src -> <src>, dst -> <dst>, attr -> <e>.attr.
    std::vector<std::string> names;
    for (const auto& f : edges_.schema().fields()) {
      if (f.name == "src") {
        names.push_back(src);
      } else if (f.name == "dst") {
        names.push_back(dst);
      } else if (!m.edge.empty()) {
        names.push_back(m.edge + "." + f.name);
      } else {
        names.push_back("__anon" + std::to_string(anon_counter++) + "." +
                        f.name);
      }
    }
    DataFrame step = edges_.Rename(names);
    if (!m.edge.empty()) {
      auto it = options.edge_predicates.find(m.edge);
      if (it != options.edge_predicates.end()) {
        step = step.Filter(it->second);
      }
    }
    result = result.valid() ? NaturalJoin(result, step) : step;
    result = apply_vertex_predicates(result);
  }
  // Attach vertex attributes for named vertices.
  for (const auto& v : named_vertices) {
    std::vector<std::string> names;
    bool has_extra = false;
    for (const auto& f : vertices_.schema().fields()) {
      if (f.name == "id") {
        names.push_back(v);
      } else {
        names.push_back(v + "." + f.name);
        has_extra = true;
      }
    }
    if (!has_extra) continue;
    result = NaturalJoin(result, vertices_.Rename(names));
  }
  // Drop anonymous columns.
  std::vector<std::string> keep;
  for (const auto& f : result.schema().fields()) {
    if (!StartsWith(f.name, "__anon")) keep.push_back(f.name);
  }
  return result.Select(keep);
}

Result<sql::DataFrame> GraphFrame::Bfs(const sql::Expr& from,
                                       const sql::Expr& to,
                                       int max_hops) const {
  if (max_hops < 0) {
    return Status::InvalidArgument("max_hops must be >= 0");
  }
  // End-vertex ids as a single renamed column for hit-testing.
  DataFrame to_ids = vertices_.Filter(to).Select({"id"}).Rename({"__to"});

  // Start frontier: matching vertices with columns v0 (+ attributes).
  std::vector<std::string> start_names;
  for (const auto& f : vertices_.schema().fields()) {
    start_names.push_back(f.name == "id" ? "v0" : "v0." + f.name);
  }
  DataFrame paths = vertices_.Filter(from).Rename(start_names);

  // Column "v<hop>" / prefix "e<hop>", built by append: GCC 12 at -O3
  // raises a -Werror=restrict false positive on an inlined
  // `"v" + std::to_string(hop)`.
  auto hop_column = [](char kind, int hop) {
    std::string name(1, kind);
    name += std::to_string(hop);
    return name;
  };
  for (int hop = 0; hop <= max_hops; ++hop) {
    std::string last = hop_column('v', hop);
    // Hit test: any path ending in a `to` vertex?
    DataFrame hits = paths.Join(to_ids, {{last, "__to"}});
    if (hits.NumRows() > 0) {
      std::vector<std::string> keep;
      for (const auto& f : hits.schema().fields()) {
        if (f.name != "__to") keep.push_back(f.name);
      }
      return hits.Select(keep).Distinct();
    }
    if (hop == max_hops) break;
    // Extend every path by one edge.
    std::string next = hop_column('v', hop + 1);
    std::vector<std::string> edge_names;
    for (const auto& f : edges_.schema().fields()) {
      if (f.name == "src") {
        edge_names.push_back("__src");
      } else if (f.name == "dst") {
        edge_names.push_back(next);
      } else {
        edge_names.push_back(hop_column('e', hop) + "." + f.name);
      }
    }
    paths = paths.Join(edges_.Rename(edge_names), {{last, "__src"}});
    std::vector<std::string> keep;
    for (const auto& f : paths.schema().fields()) {
      if (f.name != "__src") keep.push_back(f.name);
    }
    paths = paths.Select(keep);
    if (paths.NumRows() == 0) break;  // frontier died out
  }
  // No path: empty frame with the start schema.
  return vertices_.Filter(from).Rename(start_names).Limit(0);
}

sql::DataFrame GraphFrame::InDegrees() const {
  return edges_.GroupByAgg({"dst"},
                           {AggSpec{AggOp::kCount, "", "inDegree"}});
}

sql::DataFrame GraphFrame::OutDegrees() const {
  return edges_.GroupByAgg({"src"},
                           {AggSpec{AggOp::kCount, "", "outDegree"}});
}

}  // namespace rdfspark::spark::graphframes
