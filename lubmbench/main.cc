// lubmbench — wall-clock benchmark of the reproduced Spark RDF engines.
//
//   lubmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--setup-only 1]
//
// --setup-only 1 stops after set-up (and the re-loads that reload_ms times)
// and prints only {"setup_s": …, "reload_ms": …}; run.py takes the median
// of these over several processes.
//
// Workloads (see README.md for their make-up and why each exists):
//   lubm_scale          direct Execute by one caller, 11 variants x 18
//                       queries over ~25 RDFS-materialized universities
//   serve_hot           QueryServer closed loop, 4 sessions, selective BGPs,
//                       every plan a cache hit after warm-up
//   serve_churn         same server, constants drawn from a key space ~9x
//                       the plan cache, dataset hot-swapped at quiet points
//   catalyst_cartesian  Hybrid_SparkSQL_naive's cartesian chains
//
// The program is driven only through its public calls. Every answer is
// checked against the benchmark's own evaluator (evaluator.h). The last
// line of stdout is one JSON object: correct, attempted, failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "evaluator.h"
#include "rdf/generator.h"
#include "rdf/rdfs.h"
#include "serving/query_server.h"
#include "spark/context.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "trace.h"

namespace lubmbench {
namespace {

using namespace rdfspark;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------- inputs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;  ///< Print only setup_s and reload_ms, then exit.
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// SplitMix64: the benchmark's only source of randomness, seeded by --seed.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// What one workload runs. A round is a fixed number of operations; every
/// run attempts whole rounds.
struct Spec {
  int universities = 1;
  bool served = false;
  int clients = 1;             ///< Sessions (served) or callers (direct).
  /// serve_churn: draw new constants every round, and hot-swap between two
  /// datasets after it.
  bool churn = false;
  int copies_per_key = 0;      ///< Served round: copies of each pair.
  std::vector<std::string> variants;
  /// (variant, query name) cells left out, with the reason in README.md.
  std::set<std::pair<std::string, std::string>> skipped;
  std::vector<std::string> queries;  ///< Query names (see QueryTexts).
};

const char* const kNaive = "Hybrid_SparkSQL_naive";

std::vector<std::string> AllVariantNames() {
  std::vector<std::string> names;
  for (const auto& f : systems::AllEngineVariantFactories()) {
    names.push_back(f.name);
  }
  return names;
}

bool MakeSpec(const std::string& workload, Spec* spec) {
  const std::vector<std::string> selective = {"Q1",  "Q3",  "Q4",  "Q5",
                                              "Q10", "Q11", "Q12", "Q13"};
  if (workload == "lubm_scale") {
    spec->universities = 25;
    for (const auto& name : AllVariantNames()) {
      if (name != kNaive) spec->variants.push_back(name);
    }
    // Superlinear on the Q9 triangle (CHANGES.md FOUND line).
    spec->skipped = {{"Hybrid_RDD_partitioned", "Q9"},
                     {"Hybrid_DataFrame_broadcast", "Q9"}};
    for (int q = 1; q <= 14; ++q) spec->queries.push_back("Q" + std::to_string(q));
    for (const char* s : {"star", "linear", "snowflake", "complex"}) {
      spec->queries.push_back(s);
    }
  } else if (workload == "catalyst_cartesian") {
    spec->universities = 1;
    spec->variants = {kNaive};
    spec->queries = {"Q2", "Q7", "Q9", "snowflake"};
  } else if (workload == "serve_hot" || workload == "serve_churn") {
    spec->universities = 2;
    spec->served = true;
    spec->clients = 4;
    spec->variants = AllVariantNames();
    spec->queries = selective;
    spec->churn = workload == "serve_churn";
    spec->copies_per_key = 8;
  } else {
    return false;
  }
  return true;
}

/// Query name -> SPARQL text, for the 18 LUBM queries.
std::map<std::string, std::string> QueryTexts() {
  std::map<std::string, std::string> texts;
  for (const auto& [name, text] : rdf::LubmBenchmarkQueries()) {
    texts[name] = text;
  }
  for (const auto& [shape, text] : rdf::LubmQueryMix()) {
    texts[rdf::QueryShapeName(shape)] = text;
  }
  return texts;
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Every text a selective query takes when its constant ranges over the
/// dataset's courses, professors, departments or universities: the
/// serve_churn key space.
std::vector<std::string> ConstantVariants(const std::string& name,
                                          const std::string& text,
                                          const rdf::LubmConfig& cfg) {
  std::vector<std::string> out;
  for (int u = 0; u < cfg.num_universities; ++u) {
    std::string univ = "University" + std::to_string(u);
    if (name == "Q11" || name == "Q12" || name == "Q13") {
      out.push_back(Replace(text, "ub:University0", "ub:" + univ));
      continue;
    }
    for (int d = 0; d < cfg.departments_per_university; ++d) {
      std::string dept = "Dept" + std::to_string(d) + ".Univ" + std::to_string(u);
      if (name == "Q4" || name == "Q5") {
        out.push_back(Replace(text, "ub:Dept0.Univ0", "ub:" + dept));
      } else if (name == "Q3") {
        for (int p = 0; p < cfg.professors_per_department; ++p) {
          out.push_back(Replace(text, "ub:Professor0.Dept0.Univ0",
                                "ub:Professor" + std::to_string(p) + "." + dept));
        }
      } else {  // Q1, Q10
        for (int c = 0; c < cfg.courses_per_department; ++c) {
          out.push_back(Replace(text, "ub:Course0.Dept0.Univ0",
                                "ub:Course" + std::to_string(c) + "." + dept));
        }
      }
    }
  }
  return out;
}

/// One operation: a query text sent to one variant.
struct Op {
  std::string variant;
  std::string name;
  const std::string* text = nullptr;  ///< Owned by Workload::texts.
};

// --------------------------------------------------------------- metrics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The mean of the middle fifth (the 40%-trimmed mean): a smoothed median
/// for values with gaps near their middle, where the plain median jumps
/// from one value to the next. Of 4 values it is their median.
double MiddleMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t from = v.size() * 2 / 5;
  size_t to = v.size() - from;
  double sum = 0;
  for (size_t i = from; i < to; ++i) sum += v[i];
  return to > from ? sum / static_cast<double>(to - from) : 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

/// The simulated counters the program promises are deterministic.
struct SimPrint {
  uint64_t sim_ns = 0, tasks = 0, shuffle_bytes = 0, join_comparisons = 0;
  bool operator==(const SimPrint&) const = default;
};

SimPrint PrintOf(const spark::Metrics& d) {
  return {d.simulated_ms.nanos(), d.tasks.value(), d.shuffle_bytes.value(),
          d.join_comparisons.value()};
}

// ------------------------------------------------------------- the run

class Bench {
 public:
  Bench(Args args, Spec spec)
      : args_(std::move(args)),
        spec_(std::move(spec)),
        tracer_(args_.trace),
        sc_(ClusterConfig()) {}

  int Run();

 private:
  static spark::ClusterConfig ClusterConfig() {
    spark::ClusterConfig cfg;
    cfg.num_executors = 4;
    cfg.default_parallelism = 8;
    cfg.executor_threads = 0;  // One pool thread per executor: 4.
    return cfg;
  }

  // Set-up.
  void MakeDatasets();
  void MakeTexts();
  void ComputeExpected();
  double LoadDataset(size_t index);
  bool LoadDirectEngines(std::map<std::string, std::unique_ptr<systems::BgpEngineBase>>* engines,
                         const rdf::TripleStore& store);
  std::unique_ptr<serving::QueryServer> MakeServer(bool telemetry);
  std::vector<std::vector<Op>> DrawRound();

  // One round; returns its wall ms (checks excluded) and appends latencies.
  struct RoundResult {
    double wall_ms = 0;
    double sim_ms = 0;
    uint64_t completed = 0;
    std::vector<double> latencies_ms;  ///< Direct rounds: in op order.
  };
  RoundResult DirectRound(bool traced);
  RoundResult ServedRound(serving::QueryServer* server,
                          const std::vector<std::vector<Op>>& ops,
                          const std::vector<int>& sessions, bool traced,
                          bool count_attempts);
  void CheckAnswer(const Op& op, Result<sparql::BindingTable> result);

  /// Timed loop of whole rounds until `seconds` have passed.
  struct Phase {
    double wall_ms = 0;
    uint64_t completed = 0;
    int rounds = 0;
    std::vector<double> latencies_ms;
    std::vector<double> reload_ms;
    // Per-round figures; the run reports their medians, so one round slowed
    // by a noisy neighbour does not move the result.
    std::vector<double> round_qps, round_p50_ms, round_p99_ms, round_sim_ms;
    /// Direct workloads: every cell's latency in every round, by op index.
    std::vector<std::vector<double>> cell_ms;
  };
  void TimedLoop(double seconds, Phase* untraced, Phase* traced);
  std::vector<double> Reloads();
  void ReportEndToEnd(double setup_s, const std::vector<double>& reloads,
                      const Phase& phase);
  bool CheckTenantStats();
  bool CheckSimDeterminism();

  // Traced-run extras.
  void TracedExtras(const Phase& untraced, const Phase& traced);
  void Fail(const std::string& what) {
    if (correct_) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }

  Args args_;
  Spec spec_;
  Tracer tracer_;
  spark::SparkContext sc_;

  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  size_t active_ = 0;  ///< Index of the dataset being served.
  std::vector<rdf::LubmConfig> configs_;
  std::vector<std::unique_ptr<std::string>> texts_;
  std::vector<std::pair<std::string, const std::string*>> keys_;  // (name, text)
  std::map<std::string, std::vector<const std::string*>> texts_by_name_;
  /// Expected answers per dataset, keyed by query text.
  std::vector<std::map<std::string, Answer>> expected_;

  std::map<std::string, std::unique_ptr<systems::BgpEngineBase>> engines_;
  std::vector<Op> direct_ops_;
  std::unique_ptr<serving::QueryServer> server_;
  std::vector<int> sessions_;
  std::vector<std::string> tenants_;
  uint64_t draw_state_ = 0;
  std::vector<std::vector<Op>> fixed_round_;

  // Own counts, for the TenantStats cross-check.
  std::map<std::string, std::pair<uint64_t, uint64_t>> own_counts_;  // ok, rows
  std::mutex own_mu_;

  // Per-cell simulated counters of the first pass (direct workloads).
  std::vector<SimPrint> first_prints_;
  std::vector<SimPrint> round_prints_;

  uint64_t stored_bytes_ = 0;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::mutex check_mu_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> units_;
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = value;
    units_[name] = unit;
  }
};

void Bench::MakeDatasets() {
  int count = spec_.churn ? 2 : 1;
  for (int i = 0; i < count; ++i) {
    rdf::LubmConfig cfg;
    cfg.num_universities = spec_.universities;
    cfg.seed = args_.seed * 2 + static_cast<uint64_t>(i);
    auto store = std::make_unique<rdf::TripleStore>();
    {
      Tracer::Span span(&tracer_, "rdf.GenerateLubm");
      store->AddAll(rdf::GenerateLubm(cfg));
    }
    store->AddAll(rdf::LubmSchema());
    store->Dedupe();
    {
      Tracer::Span span(&tracer_, "rdf.MaterializeRdfs");
      rdf::MaterializeRdfs(store.get());
    }
    std::fprintf(stderr, "dataset %d: %d universities, seed %llu, %zu triples\n",
                 i, cfg.num_universities,
                 static_cast<unsigned long long>(cfg.seed), store->size());
    configs_.push_back(cfg);
    stores_.push_back(std::move(store));
  }
}

void Bench::MakeTexts() {
  std::map<std::string, std::string> base_texts = QueryTexts();
  for (const auto& name : spec_.queries) {
    const std::string& text = base_texts.at(name);
    std::vector<std::string> variants =
        spec_.churn ? ConstantVariants(name, text, configs_[0])
                    : std::vector<std::string>{text};
    for (auto& t : variants) {
      texts_.push_back(std::make_unique<std::string>(std::move(t)));
      keys_.emplace_back(name, texts_.back().get());
      texts_by_name_[name].push_back(texts_.back().get());
    }
  }
}

void Bench::ComputeExpected() {
  for (const auto& store : stores_) {
    ExpectedEvaluator evaluator(*store);
    std::map<std::string, Answer> answers;
    for (const auto& [name, text] : keys_) {
      auto query = sparql::ParseQuery(*text);
      auto answer = query.ok() ? evaluator.Evaluate(*query)
                               : Result<Answer>(query.status());
      if (!answer.ok()) {
        Fail("evaluator: " + name + ": " + answer.status().ToString());
        continue;
      }
      answers[*text] = std::move(*answer);
    }
    expected_.push_back(std::move(answers));
  }
}

bool Bench::LoadDirectEngines(
    std::map<std::string, std::unique_ptr<systems::BgpEngineBase>>* engines,
    const rdf::TripleStore& store) {
  Tracer::Span load_all(&tracer_, "bench.LoadDataset");
  stored_bytes_ = 0;
  for (const auto& f : systems::AllEngineVariantFactories()) {
    if (std::find(spec_.variants.begin(), spec_.variants.end(), f.name) ==
        spec_.variants.end()) {
      continue;
    }
    auto engine = f.make(&sc_);
    engine->set_debug_check_plans(false);
    engine->set_debug_check_queries(false);
    engine->set_debug_check_races(false);
    Result<systems::LoadStats> stats = [&] {
      Tracer::Span span(&tracer_, "systems.Load");
      return engine->Load(store);
    }();
    if (!stats.ok()) {
      Fail("Load " + f.name + ": " + stats.status().ToString());
      return false;
    }
    stored_bytes_ += stats->stored_bytes;
    (*engines)[f.name] = std::move(engine);
  }
  return true;
}

std::unique_ptr<serving::QueryServer> Bench::MakeServer(bool telemetry) {
  serving::QueryServer::Options options;
  options.variants = spec_.variants;
  options.worker_threads = 4;
  options.memory_budget_bytes = 0;
  options.verify_queries = false;
  options.verify_plans = false;
  options.check_races = false;
  options.telemetry = telemetry;
  return std::make_unique<serving::QueryServer>(&sc_, options);
}

/// One served round: every (variant, query) pair `copies_per_key` times,
/// in a seeded shuffled order dealt round-robin to the sessions, so every
/// round and every seed carries the same mix. serve_hot repeats one round;
/// serve_churn draws a fresh constant for every request.
std::vector<std::vector<Op>> Bench::DrawRound() {
  if (!spec_.churn && !fixed_round_.empty()) return fixed_round_;
  std::vector<Op> all;
  for (const auto& variant : spec_.variants) {
    for (const auto& name : spec_.queries) {
      const auto& texts = texts_by_name_.at(name);
      for (int k = 0; k < spec_.copies_per_key; ++k) {
        all.push_back(
            {variant, name, texts[NextRand(&draw_state_) % texts.size()]});
      }
    }
  }
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[NextRand(&draw_state_) % i]);
  }
  std::vector<std::vector<Op>> round(static_cast<size_t>(spec_.clients));
  for (size_t i = 0; i < all.size(); ++i) {
    round[i % round.size()].push_back(std::move(all[i]));
  }
  if (!spec_.churn) fixed_round_ = round;
  return round;
}

void Bench::CheckAnswer(const Op& op, Result<sparql::BindingTable> result) {
  if (!result.ok()) {
    std::lock_guard<std::mutex> lock(check_mu_);
    ++failed_;
    std::fprintf(stderr, "FAILED %s/%s: %s\n", op.variant.c_str(),
                 op.name.c_str(), result.status().ToString().c_str());
    return;
  }
  const auto& dict = stores_[active_]->dictionary();
  auto answer = Canonicalize(*result, dict);
  const auto& expected = expected_[active_];
  auto it = expected.find(*op.text);
  std::string diff = !answer.ok()        ? answer.status().ToString()
                     : it == expected.end() ? std::string("no expected answer")
                                            : DiffAnswers(it->second, *answer);
  if (!diff.empty()) {
    std::lock_guard<std::mutex> lock(check_mu_);
    Fail(op.variant + "/" + op.name + ": " + diff);
  }
}

Bench::RoundResult Bench::DirectRound(bool traced) {
  RoundResult round;
  round_prints_.clear();
  std::vector<Result<sparql::BindingTable>> results;
  results.reserve(direct_ops_.size());
  for (const Op& op : direct_ops_) {
    systems::BgpEngineBase* engine = engines_.at(op.variant).get();
    uint64_t request = traced ? tracer_.NewRequest() : 0;
    Tracer::Span req(&tracer_, "bench.Request", request);
    spark::Metrics before = sc_.metrics();
    Clock::time_point start = Clock::now();
    Result<sparql::BindingTable> result = [&]() -> Result<sparql::BindingTable> {
      Result<sparql::Query> query = [&] {
        Tracer::Span span(&tracer_, "sparql.ParseQuery");
        return sparql::ParseQuery(*op.text);
      }();
      if (!query.ok()) return query.status();
      Tracer::Span span(&tracer_, "systems.Execute");
      return engine->Execute(*query);
    }();
    double ms = MsSince(start);
    spark::Metrics delta = sc_.metrics() - before;
    round.wall_ms += ms;
    round.sim_ms += delta.simulated_ms.ms();
    round.latencies_ms.push_back(ms);
    round_prints_.push_back(PrintOf(delta));
    if (result.ok()) ++round.completed;
    results.push_back(std::move(result));
  }
  attempted_ += direct_ops_.size();
  for (size_t i = 0; i < direct_ops_.size(); ++i) {
    CheckAnswer(direct_ops_[i], std::move(results[i]));
  }
  if (first_prints_.empty()) {
    first_prints_ = round_prints_;
  } else if (first_prints_ != round_prints_) {
    Fail("simulated counters differ between passes");
  }
  return round;
}

Bench::RoundResult Bench::ServedRound(serving::QueryServer* server,
                                      const std::vector<std::vector<Op>>& ops,
                                      const std::vector<int>& sessions,
                                      bool traced, bool count_attempts) {
  RoundResult round;
  std::vector<std::vector<serving::RequestResult>> results(ops.size());
  spark::Metrics before = sc_.metrics();
  Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < ops.size(); ++c) {
    clients.emplace_back([&, c] {
      for (const Op& op : ops[c]) {
        uint64_t request = traced ? tracer_.NewRequest() : 0;
        Tracer::Span span(&tracer_, "serving.Execute", request);
        results[c].push_back(server->Execute(sessions[c], op.variant, *op.text));
      }
    });
  }
  for (auto& t : clients) t.join();
  round.wall_ms = MsSince(start);
  round.sim_ms = (sc_.metrics() - before).simulated_ms.ms();
  for (size_t c = 0; c < ops.size(); ++c) {
    for (size_t i = 0; i < ops[c].size(); ++i) {
      serving::RequestResult& r = results[c][i];
      round.latencies_ms.push_back(r.latency_ms);
      if (count_attempts) ++attempted_;
      if (r.status.ok()) {
        ++round.completed;
        if (server == server_.get()) {
          auto& own = own_counts_[tenants_[c]];
          ++own.first;
          own.second += r.table.num_rows();
        }
        CheckAnswer(ops[c][i], std::move(r.table));
      } else {
        CheckAnswer(ops[c][i], r.status);
      }
    }
  }
  return round;
}

/// Loads dataset `index` into the workload's engines and makes it the
/// active one: `AttachDataset` on the server, or a fresh set of engines
/// that replaces the old for the direct workloads. The set-up load, the
/// serve_churn hot swaps and the re-loads behind reload_ms all come here.
/// Returns its wall ms.
double Bench::LoadDataset(size_t index) {
  Clock::time_point start = Clock::now();
  active_ = index;
  if (spec_.served) {
    Tracer::Span load_all(&tracer_, "bench.LoadDataset");
    Tracer::Span span(&tracer_, "serving.AttachDataset");
    Status st = server_->AttachDataset(*stores_[index]);
    if (!st.ok()) Fail("AttachDataset: " + st.ToString());
  } else {
    engines_.clear();  // One set of engines is live at a time.
    LoadDirectEngines(&engines_, *stores_[index]);
  }
  return MsSince(start);
}

/// Whole rounds until `seconds` of round time have passed. In a traced
/// run every other round records spans, so the traced and untraced halves
/// see the same conditions and their difference is the tracing overhead.
void Bench::TimedLoop(double seconds, Phase* untraced, Phase* traced) {
  for (int i = 0; untraced->wall_ms + traced->wall_ms < seconds * 1e3; ++i) {
    bool trace_round = args_.trace && i % 2 == 1;
    Phase* phase = trace_round ? traced : untraced;
    RoundResult round =
        spec_.served ? ServedRound(server_.get(), DrawRound(), sessions_,
                                   trace_round, /*count_attempts=*/true)
                     : DirectRound(trace_round);
    phase->wall_ms += round.wall_ms;
    phase->completed += round.completed;
    phase->latencies_ms.insert(phase->latencies_ms.end(),
                               round.latencies_ms.begin(),
                               round.latencies_ms.end());
    ++phase->rounds;
    phase->round_qps.push_back(round.completed / (round.wall_ms / 1e3));
    phase->round_p50_ms.push_back(Median(round.latencies_ms));
    phase->round_p99_ms.push_back(Quantile(round.latencies_ms, 0.99));
    phase->round_sim_ms.push_back(round.sim_ms);
    if (!spec_.served) {
      phase->cell_ms.resize(round.latencies_ms.size());
      for (size_t c = 0; c < round.latencies_ms.size(); ++c) {
        phase->cell_ms[c].push_back(round.latencies_ms[c]);
      }
    }
    std::fprintf(stderr, "round %d%s: %zu queries, %.1f ms\n", i,
                 trace_round ? " (traced)" : "", round.latencies_ms.size(),
                 round.wall_ms);
    if (spec_.served && !CheckTenantStats()) break;
    if (spec_.churn) {
      // A quiet point: every client's last request has returned.
      phase->reload_ms.push_back(LoadDataset(1 - active_));
    }
  }
}

bool Bench::CheckTenantStats() {
  for (const auto& tenant : tenants_) {
    serving::TenantStats stats = server_->tenant_stats(tenant);
    const auto& own = own_counts_[tenant];
    if (stats.completed != own.first || stats.rows_returned != own.second) {
      Fail("TenantStats of " + tenant + " disagree with the client's counts");
      return false;
    }
  }
  return true;
}

/// Workloads without hot swaps report reload_ms from re-loads of their
/// dataset: at least 5, and more while they take under 1 s in total.
std::vector<double> Bench::Reloads() {
  std::vector<double> ms;
  double total_ms = 0;
  while (ms.size() < 5 || total_ms < 1e3) {
    ms.push_back(LoadDataset(active_));
    total_ms += ms.back();
  }
  return ms;
}

/// The per-cell simulated counters must repeat across runs of one seed:
/// the first run of a seed records them, later runs compare. The record
/// lives in --out, which run.py names by the binary's hash, so a record
/// made by another build is never compared.
bool Bench::CheckSimDeterminism() {
  std::ostringstream print;
  for (const SimPrint& p : first_prints_) {
    print << p.sim_ns << ' ' << p.tasks << ' ' << p.shuffle_bytes << ' '
          << p.join_comparisons << '\n';
  }
  std::string path = args_.out_dir + "/sim-" + args_.workload + "-" +
                     std::to_string(args_.seed) + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    return recorded.str() == print.str();
  }
  std::ofstream(path) << print.str();
  return true;
}

int Bench::Run() {
  draw_state_ = args_.seed;
  MakeDatasets();
  MakeTexts();
  if (spec_.served) {
    server_ = MakeServer(/*telemetry=*/true);
    for (int c = 0; c < spec_.clients; ++c) {
      tenants_.push_back("tenant" + std::to_string(c));
      sessions_.push_back(server_->OpenSession(tenants_.back()));
    }
  }
  LoadDataset(0);
  if (!correct_) return 1;
  if (!spec_.served) {
    for (const auto& variant : spec_.variants) {
      bool bgp_plus = engines_.at(variant)->traits().fragment ==
                      systems::SparqlFragment::kBgpPlus;
      for (const auto& [name, text] : keys_) {
        if (name == "complex" && !bgp_plus) continue;
        if (spec_.skipped.count({variant, name})) continue;
        direct_ops_.push_back({variant, name, text});
      }
    }
  }
  double setup_s = MsSince(kProcessStart) / 1e3;
  // Workloads without hot swaps time re-loads of their dataset here, on
  // the heap the set-up left, before the timed phase changes it.
  std::vector<double> reloads;
  if (!spec_.churn && !args_.trace) reloads = Reloads();
  if (args_.setup_only) {
    std::printf("{\"setup_s\": %.17g", setup_s);
    if (!reloads.empty()) std::printf(", \"reload_ms\": %.17g", Median(reloads));
    std::printf("}\n");
    return 0;
  }
  // Expected answers, outside setup_s and the timed phase.
  ComputeExpected();
  if (!correct_) return 1;

  // Warm-up: one untimed round (answers checked) fills the plan cache and
  // lets the allocator and the first touch of the working set settle.
  if (spec_.served) {
    ServedRound(server_.get(), DrawRound(), sessions_, false, true);
  } else {
    DirectRound(false);
  }

  Phase phase;
  Phase traced_phase;
  TimedLoop(args_.seconds, &phase, &traced_phase);
  if (!spec_.served && !first_prints_.empty() && !CheckSimDeterminism()) {
    Fail("simulated counters differ from an earlier run of this seed");
  }
  if (spec_.served) CheckTenantStats();

  if (args_.trace) {
    TracedExtras(phase, traced_phase);
  } else {
    ReportEndToEnd(setup_s, spec_.churn ? phase.reload_ms : reloads, phase);
  }

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + units_[name] + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

/// The end-to-end metrics. The result format carries every one of them on
/// every workload; README.md says what each means where its sample is thin.
void Bench::ReportEndToEnd(double setup_s, const std::vector<double>& reloads,
                           const Phase& phase) {
  double qps, p50, p99;
  if (spec_.served) {
    qps = Median(phase.round_qps);
    p50 = Median(phase.round_p50_ms);
    p99 = Median(phase.round_p99_ms);
  } else {
    // A direct round runs each cell once, and its few slow cells make up
    // most of its time; so each cell counts with its median over the
    // rounds, and a slow spell in one round does not move the result.
    std::vector<double> cells;
    double round_ms = 0;
    for (const auto& ms : phase.cell_ms) {
      cells.push_back(Median(ms));
      round_ms += cells.back();
    }
    qps = static_cast<double>(phase.completed) / phase.rounds /
          (round_ms / 1e3);
    // lubm_scale's cells lie far apart near their median (3.3 ms, then
    // 4.1 ms), so the median is smoothed over the middle fifth.
    p50 = MiddleMean(cells);
    // Under 100 cells a 99th percentile is the slowest cell: say so.
    p99 = cells.size() >= 100 ? Quantile(cells, 0.99)
                              : *std::max_element(cells.begin(), cells.end());
  }
  Metric("setup_s", setup_s, "s");
  Metric("queries_per_s", qps, "1/s");
  Metric("query_p50_ms", p50, "ms");
  Metric("query_p99_ms", p99, "ms");
  // Mean over whole pairs of rounds, as serve_churn alternates two datasets.
  size_t sim_rounds = std::max<size_t>(1, phase.round_sim_ms.size() / 2 * 2);
  double sim_ms = 0;
  for (size_t r = 0; r < sim_rounds; ++r) sim_ms += phase.round_sim_ms[r];
  Metric("sim_s", sim_ms / static_cast<double>(sim_rounds) / 1e3, "s");
  Metric("reload_ms", Median(reloads), "ms");
  Metric("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr, "%s: %d rounds, %zu queries, %.1f s timed\n",
               args_.workload.c_str(), phase.rounds,
               phase.latencies_ms.size(), phase.wall_ms / 1e3);
}

// ------------------------------------------------------ traced-run extras

void Bench::TracedExtras(const Phase& untraced, const Phase& traced) {
  auto qps = [](double completed, double wall_ms) {
    return wall_ms > 0 ? completed / (wall_ms / 1e3) : 0.0;
  };
  Metric("trace.overhead_qps",
         qps(traced.completed, traced.wall_ms) -
             qps(untraced.completed, untraced.wall_ms),
         "1/s");

  // Set-up layers.
  Metric("rdf.generate_ms", tracer_.Sum("rdf.GenerateLubm").ns / 1e6, "ms");
  Metric("rdf.materialize_ms", tracer_.Sum("rdf.MaterializeRdfs").ns / 1e6,
         "ms");

  // Direct replay of one round through the engines' split entry points:
  // parse, plan, Tier D envelope, execute; then ExecuteAnalyzed actuals.
  std::map<std::string, std::unique_ptr<systems::BgpEngineBase>> replay;
  std::vector<Op> ops = direct_ops_;
  if (spec_.served) {
    LoadDirectEngines(&replay, *stores_[active_]);
    for (const auto& client_ops : DrawRound()) {
      ops.insert(ops.end(), client_ops.begin(), client_ops.end());
    }
  }
  auto& engines = spec_.served ? replay : engines_;
  Metric("systems.stored_mb", static_cast<double>(stored_bytes_) / 1e6, "MB");

  int64_t since = tracer_.NowNs();
  spark::Metrics before = sc_.metrics();
  std::vector<double> direct_ms;
  double direct_wall_ms = 0;
  for (const Op& op : ops) {
    systems::BgpEngineBase* engine = engines.at(op.variant).get();
    Tracer::Span req(&tracer_, "bench.Request", tracer_.NewRequest());
    Clock::time_point start = Clock::now();
    Result<sparql::BindingTable> result = [&]() -> Result<sparql::BindingTable> {
      Result<sparql::Query> query = [&] {
        Tracer::Span span(&tracer_, "sparql.ParseQuery");
        return sparql::ParseQuery(*op.text);
      }();
      if (!query.ok()) return query.status();
      Result<systems::plan::PlanPtr> planned = [&] {
        Tracer::Span span(&tracer_, "systems.PlanQuery");
        return engine->PlanQuery(*query);
      }();
      if (!planned.ok() || !engine->ReusablePlans()) {
        Tracer::Span span(&tracer_, "systems.Execute");
        return engine->Execute(*query);
      }
      {
        Tracer::Span span(&tracer_, "systems.AnalyzePlanResources");
        engine->AnalyzePlanResources(*query, **planned);
      }
      Tracer::Span span(&tracer_, "systems.ExecutePlanned");
      return engine->ExecutePlanned(*query, **planned);
    }();
    double ms = MsSince(start);
    direct_ms.push_back(ms);
    direct_wall_ms += ms;
    ++attempted_;
    CheckAnswer(op, std::move(result));
  }
  spark::Metrics delta = sc_.metrics() - before;
  double exec_ns = tracer_.Sum("systems.Execute", since).ns +
                   tracer_.Sum("systems.ExecutePlanned", since).ns;
  double exec_count =
      static_cast<double>(tracer_.Sum("systems.Execute", since).count +
                          tracer_.Sum("systems.ExecutePlanned", since).count);
  Metric("sparql.parse_us", tracer_.Sum("sparql.ParseQuery", since).MeanUs(),
         "us");
  Metric("plan.plan_us", tracer_.Sum("systems.PlanQuery", since).MeanUs(),
         "us");
  Metric("plan.envelope_us",
         tracer_.Sum("systems.AnalyzePlanResources", since).MeanUs(), "us");
  Metric("exec.execute_ms", exec_count > 0 ? exec_ns / 1e6 / exec_count : 0,
         "ms");
  Metric("exec.wall_per_sim", exec_ns / 1e6 / delta.simulated_ms.ms(),
         "ratio");
  Metric("spark.tasks", static_cast<double>(delta.tasks.value()), "count");
  Metric("spark.task_us",
         delta.tasks.value() > 0 ? exec_ns / 1e3 / delta.tasks.value() : 0,
         "us");
  Metric("spark.shuffle_mb", delta.shuffle_bytes.value() / 1e6, "MB");
  Metric("spark.broadcast_mb", delta.broadcast_bytes.value() / 1e6, "MB");
  Metric("spark.join_comparisons",
         static_cast<double>(delta.join_comparisons.value()), "count");
  Metric("spark.records_processed",
         static_cast<double>(delta.records_processed.value()), "count");

  // Wasted join work: rows every operator produced per answer row.
  double all_rows = 0, answer_rows = 0;
  std::set<std::pair<std::string, const std::string*>> cells;
  for (const Op& op : ops) {
    if (!cells.insert({op.variant, op.text}).second) continue;
    Result<sparql::Query> query = sparql::ParseQuery(*op.text);
    if (!query.ok()) continue;
    Tracer::Span req(&tracer_, "bench.Request", tracer_.NewRequest());
    Result<systems::plan::PlanPtr> analyzed = [&] {
      Tracer::Span span(&tracer_, "systems.ExecuteAnalyzed");
      return engines.at(op.variant)->ExecuteAnalyzed(*query);
    }();
    if (!analyzed.ok()) {
      Fail("ExecuteAnalyzed " + op.variant + "/" + op.name);
      continue;
    }
    std::function<void(const systems::plan::PlanNode&)> walk =
        [&](const systems::plan::PlanNode& node) {
          if (node.actuals && node.actuals->rows_known) {
            all_rows += static_cast<double>(node.actuals->rows_out);
          }
          for (const auto& child : node.children) walk(*child);
        };
    walk(**analyzed);
    const auto& root = (*analyzed)->actuals;
    if (root && root->rows_known) answer_rows += root->rows_out;
  }
  Metric("exec.intermediate_rows_per_answer_row",
         answer_rows > 0 ? all_rows / answer_rows : 0, "ratio");

  // Serving: the same round through a server with telemetry on and off.
  // Served workloads compare against their own warm server; direct ones
  // serve their round through a fresh server (one session for the
  // cartesian chains, whose concurrent peaks would not fit in memory).
  std::vector<std::vector<Op>> served_ops;
  if (spec_.served) {
    served_ops = DrawRound();
  } else {
    int clients = spec_.variants.size() == 1 ? 1 : 4;
    served_ops.resize(static_cast<size_t>(clients));
    for (size_t i = 0; i < direct_ops_.size(); ++i) {
      served_ops[i % served_ops.size()].push_back(direct_ops_[i]);
    }
  }
  auto serve = [&](bool telemetry, serving::PlanCacheStats* cache) {
    std::unique_ptr<serving::QueryServer> fresh;
    serving::QueryServer* server = server_.get();
    std::vector<int> sessions = sessions_;
    if (!server || !telemetry) {
      fresh = MakeServer(telemetry);
      server = fresh.get();
      sessions.clear();
      for (size_t c = 0; c < served_ops.size(); ++c) {
        sessions.push_back(server->OpenSession("replay" + std::to_string(c)));
      }
      Tracer::Span span(&tracer_, "serving.AttachDataset");
      Status st = server->AttachDataset(*stores_[active_]);
      if (!st.ok()) Fail("AttachDataset: " + st.ToString());
      if (spec_.served && !spec_.churn) {
        ServedRound(server, served_ops, sessions, true, false);
      }
    }
    serving::PlanCacheStats start = server->plan_cache_stats();
    RoundResult round = ServedRound(server, served_ops, sessions, true, true);
    serving::PlanCacheStats end = server->plan_cache_stats();
    cache->hits = end.hits - start.hits;
    cache->misses = end.misses - start.misses;
    cache->bypasses = end.bypasses - start.bypasses;
    cache->evictions = end.evictions - start.evictions;
    cache->invalidations = end.invalidations - start.invalidations;
    return round;
  };
  serving::PlanCacheStats cache_on, cache_off;
  RoundResult on = serve(true, &cache_on);
  RoundResult off = serve(false, &cache_off);
  double requests = static_cast<double>(on.latencies_ms.size());
  Metric("obs.telemetry_us", (on.wall_ms - off.wall_ms) * 1e3 / requests, "us");

  // Served workloads report the cache over their timed phases; the
  // direct ones over the served round above.
  serving::PlanCacheStats cache = cache_on;
  if (spec_.served) cache = server_->plan_cache_stats();
  double lookups =
      static_cast<double>(cache.hits + cache.misses + cache.bypasses);
  Metric("serving.cache_hit_ratio", lookups > 0 ? cache.hits / lookups : 0,
         "ratio");
  Metric("serving.evictions", static_cast<double>(cache.evictions), "count");
  Metric("serving.invalidations", static_cast<double>(cache.invalidations),
         "count");

  // Served vs single-caller direct path over the same operations.
  const Phase& direct_phase = untraced;
  double served_p50 = spec_.served ? Median(untraced.latencies_ms)
                                   : Median(on.latencies_ms);
  double served_qps = spec_.served
                          ? qps(untraced.completed, untraced.wall_ms)
                          : qps(on.completed, on.wall_ms);
  double direct_p50 = spec_.served ? Median(direct_ms)
                                   : Median(direct_phase.latencies_ms);
  double direct_qps =
      spec_.served ? qps(static_cast<double>(direct_ms.size()), direct_wall_ms)
                   : qps(direct_phase.completed, direct_phase.wall_ms);
  Metric("serving.overhead_ms", served_p50 - direct_p50, "ms");
  Metric("serving.worker_speedup", served_qps / direct_qps, "ratio");

  // Every dataset load: set-up, hot swaps and the replay engines.
  Metric("systems.load_ms", tracer_.Sum("bench.LoadDataset").ns / 1e6 /
                                std::max<uint64_t>(1, tracer_.Sum("bench.LoadDataset").count),
         "ms");

  std::string json = tracer_.ToJson();
  std::string error;
  if (!ValidateJson(json, &error)) {
    Fail("trace is not valid JSON: " + error);
    return;
  }
  std::string path = args_.out_dir + "/trace-" + args_.workload + "-" +
                     std::to_string(args_.seed) + ".json";
  std::ofstream(path) << json;
  std::fprintf(stderr, "trace: %s (%zu bytes)\n", path.c_str(), json.size());
}

}  // namespace
}  // namespace lubmbench

int main(int argc, char** argv) {
  lubmbench::Args args;
  if (!lubmbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lubmbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--setup-only 1]\n");
    return 2;
  }
  lubmbench::Spec spec;
  if (!lubmbench::MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  lubmbench::Bench bench(args, spec);
  return bench.Run();
}
