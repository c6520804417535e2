// In-memory span recorder of the benchmark's traced runs. A span wraps
// one public call into the program: name, start, end, the span open on
// the same thread when it began (its parent) and a request id shared by
// every span of one request. Spans are kept in memory and written out as
// one JSON document when the run ends.
#ifndef LUBMBENCH_TRACE_H_
#define LUBMBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lubmbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled tracer records nothing; its spans cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Nanoseconds since the tracer was made.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// A fresh request id (ids start at 1; 0 means "no request").
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// RAII span. `request` 0 inherits the enclosing span's request.
  class Span {
   public:
    Span(Tracer* tracer, std::string_view name, uint64_t request = 0);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::string_view name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t request_ = 0;
    int64_t start_ns_ = 0;
  };

  /// Count and summed duration of the spans named `name` that started at
  /// or after `since_ns`.
  struct Total {
    uint64_t count = 0;
    double ns = 0;
    double MeanUs() const { return count == 0 ? 0.0 : ns / 1e3 / count; }
  };
  Total Sum(std::string_view name, int64_t since_ns = 0) const;

  /// All spans as a JSON document (see README.md for the format).
  std::string ToJson() const;

 private:
  struct Record {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    std::string_view name;  // Span names are string literals.
    int64_t start_ns;
    int64_t end_ns;
  };

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;  // Guarded by mu_.
};

}  // namespace lubmbench

#endif  // LUBMBENCH_TRACE_H_
