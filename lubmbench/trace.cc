#include "trace.h"

#include <utility>

#include "common/json.h"

namespace lubmbench {

namespace {

/// Open spans of this thread: (span id, request id), innermost last.
thread_local std::vector<std::pair<uint64_t, uint64_t>> open_spans;

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string_view name, uint64_t request)
    : tracer_(tracer->enabled() ? tracer : nullptr), name_(name) {
  if (!tracer_) return;
  id_ = tracer_->next_id_.fetch_add(1) + 1;
  if (!open_spans.empty()) {
    parent_ = open_spans.back().first;
    if (request == 0) request = open_spans.back().second;
  }
  request_ = request;
  open_spans.emplace_back(id_, request_);
  start_ns_ = tracer_->NowNs();
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  int64_t end_ns = tracer_->NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(
      {id_, parent_, request_, name_, start_ns_, end_ns});
}

Tracer::Total Tracer::Sum(std::string_view name, int64_t since_ns) const {
  Total total;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    if (r.name != name || r.start_ns < since_ns) continue;
    ++total.count;
    total.ns += static_cast<double>(r.end_ns - r.start_ns);
  }
  return total;
}

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"format\": \"lubmbench-trace-1\", \"clock\": \"steady_ns\", \"spans\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"id\": " + std::to_string(r.id) +
           ", \"parent\": " + std::to_string(r.parent) +
           ", \"request\": " + std::to_string(r.request) + ", \"name\": \"" +
           rdfspark::JsonEscape(r.name) +
           "\", \"start_ns\": " + std::to_string(r.start_ns) +
           ", \"end_ns\": " + std::to_string(r.end_ns) + "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace lubmbench
