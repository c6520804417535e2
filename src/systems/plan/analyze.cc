#include "systems/plan/analyze.h"

#include <cstdint>
#include <vector>

#include "common/string_util.h"

namespace rdfspark::systems::plan {

namespace {

std::string EstimateError(const PlanNode& node) {
  if (node.actuals == nullptr || !node.actuals->rows_known ||
      node.est_cardinality == kNoEstimate) {
    return "-";
  }
  uint64_t act = node.actuals->rows_out;
  if (node.est_cardinality == 0) return act == 0 ? "1.00x" : "inf";
  return FormatDouble(static_cast<double>(act) /
                          static_cast<double>(node.est_cardinality),
                      2) +
         "x";
}

void RenderNode(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(NodeKindName(node.kind));
  std::string bracket = AccessPathName(node.access_path);
  if (!node.detail.empty()) {
    if (!bracket.empty()) bracket += " ";
    bracket += node.detail;
  }
  if (!bracket.empty()) {
    out->append(" [");
    out->append(bracket);
    out->append("]");
  }
  out->append(" (est=");
  out->append(node.est_cardinality == kNoEstimate
                  ? std::string("?")
                  : std::to_string(node.est_cardinality));
  if (node.actuals != nullptr) {
    const spark::OpStats& a = *node.actuals;
    out->append(" act=");
    out->append(a.rows_known ? std::to_string(a.rows_out)
                             : std::string("?"));
    out->append(" err=");
    out->append(EstimateError(node));
    out->append(")");
    auto emit = [out](const std::string& part) {
      out->append(" ");
      out->append(part);
    };
    if (a.join_comparisons > 0) {
      emit("cmp=" + std::to_string(a.join_comparisons.value()));
    }
    if (a.shuffle_records > 0 || a.shuffle_bytes > 0) {
      emit("shuf=" + std::to_string(a.shuffle_records.value()) + "/" +
           std::to_string(a.shuffle_bytes.value()) + "B");
    }
    if (a.remote_shuffle_bytes > 0) {
      emit("rmt=" + std::to_string(a.remote_shuffle_bytes.value()) + "B");
    }
    if (a.broadcast_bytes > 0) {
      emit("bcast=" + std::to_string(a.broadcast_bytes.value()) + "B");
    }
    if (a.local_read_records > 0 || a.remote_read_records > 0) {
      emit("reads=L" + std::to_string(a.local_read_records.value()) + "/R" +
           std::to_string(a.remote_read_records.value()));
    }
    if (a.tasks > 0) emit("tasks=" + std::to_string(a.tasks.value()));
    if (a.busy_ns > 0) {
      emit("busy=" +
           FormatDouble(static_cast<double>(a.busy_ns.value()) / 1e6, 3) +
           "ms");
    }
  } else {
    out->append(")");
  }
  out->append("\n");
  for (const auto& child : node.children) {
    RenderNode(*child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainAnalyze(const PlanNode& root) {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

double MaxEstimateErrorFactor(const PlanNode& root) {
  double worst = 0.0;
  if (root.actuals != nullptr && root.actuals->rows_known &&
      root.est_cardinality != kNoEstimate) {
    double est = static_cast<double>(root.est_cardinality);
    double act = static_cast<double>(root.actuals->rows_out);
    double err;
    if (est == 0.0 && act == 0.0) {
      err = 1.0;
    } else if (est == 0.0 || act == 0.0) {
      err = est + act;  // one side is zero: error = the other's magnitude
    } else {
      err = act > est ? act / est : est / act;
    }
    worst = err;
  }
  for (const auto& child : root.children) {
    double err = MaxEstimateErrorFactor(*child);
    if (err > worst) worst = err;
  }
  return worst;
}

namespace {

std::string LeafPredicate(const std::string& detail) {
  size_t open = detail.find('<');
  size_t close = detail.find('>', open == std::string::npos ? 0 : open);
  if (open != std::string::npos && close != std::string::npos) {
    return detail.substr(open, close - open + 1);
  }
  size_t end = detail.find(' ');
  if (end == std::string::npos) end = detail.size();
  return end == 0 ? std::string("?") : detail.substr(0, end);
}

void CollectLeaves(const PlanNode& node, std::vector<LeafActual>* out) {
  if (node.children.empty()) {
    if (node.actuals != nullptr && node.actuals->rows_known) {
      LeafActual leaf;
      std::string access = AccessPathName(node.access_path);
      leaf.detail = access.empty() ? node.detail
                                   : access + " " + node.detail;
      leaf.predicate = LeafPredicate(node.detail);
      leaf.est_rows = node.est_cardinality == kNoEstimate
                          ? 0
                          : node.est_cardinality;
      leaf.actual_rows = node.actuals->rows_out;
      out->push_back(std::move(leaf));
    }
    return;
  }
  for (const auto& child : node.children) CollectLeaves(*child, out);
}

}  // namespace

std::vector<LeafActual> CollectLeafActuals(const PlanNode& root) {
  std::vector<LeafActual> out;
  CollectLeaves(root, &out);
  return out;
}

}  // namespace rdfspark::systems::plan
