// bench_e2e — the whole-pipeline benchmark program (README.md).
//
//   bench_e2e gen --workload W --seed N --dir D [--smoke 1]
//   bench_e2e run --workload W --seed N --dir D --seconds S --trace 0|1
//                 [--smoke 1] [--chrome-out FILE]
//
// `gen` is the set-up: it simulates the workload's input from the seed,
// writes it as D/trace.csv plus D/labels.csv, does so three times and
// reports the median. `run` receives only those files. It calls the
// library the way the darkvec CLI does, in a closed loop with one client,
// for S seconds, checks every output and prints one JSON line. With
// --trace 1 it instead times each layer: it calls every layer's public
// function directly inside its own obs::Span, checks that the outputs are
// bit-identical to the facade's, and reports per-layer self times.
// run.py builds this program and turns both outputs into the result line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "darkvec/core/darkvec.hpp"
#include "darkvec/core/inspector.hpp"
#include "darkvec/core/parallel.hpp"
#include "darkvec/core/semi_supervised.hpp"
#include "darkvec/core/simd/simd.hpp"
#include "darkvec/core/streaming.hpp"
#include "darkvec/graph/knn_graph.hpp"
#include "darkvec/net/trace_io.hpp"
#include "darkvec/obs/obs.hpp"
#include "darkvec/sim/scenario.hpp"
#include "darkvec/sim/simulator.hpp"

namespace {

using namespace darkvec;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. Sizes keep one run (set-up plus the timed loop) near half a
// minute on a 4-vCPU host; README.md gives the reason for each workload.
// Everything else is the library's default operating point: domain
// services, V=50, c=25, ΔT=1 h, SGNS on 1 thread.

struct Workload {
  const char* name;
  int days;
  double scale;
  int epochs;
  int window_days;        ///< stream only
  int step_days;          ///< stream only
  int windows;            ///< stream only: windows the schedule must yield
  int lookups;            ///< neighbour lookups per iteration
  double min_accuracy;    ///< LOO 7-NN floor; 0 = not gated
  double min_modularity;  ///< k'=3 Louvain floor; 0 = not gated
};

constexpr Workload kWorkloads[] = {
    {"month_batch", 30, 0.05, 2, 0, 0, 0, 500, 0.85, 0.80},
    {"analyst_sweeps", 3, 4.0, 2, 0, 0, 0, 2000, 0.75, 0.60},
    {"stream_fortnight", 28, 0.05, 2, 14, 7, 3, 500, 0, 0},
};

// --smoke: the same three workloads, shrunk to run in seconds.
constexpr Workload kSmokeWorkloads[] = {
    {"month_batch", 30, 0.05, 1, 0, 0, 0, 200, 0.85, 0.80},
    {"analyst_sweeps", 2, 2.0, 2, 0, 0, 0, 200, 0.75, 0.60},
    {"stream_fortnight", 6, 0.05, 1, 3, 1, 4, 200, 0, 0},
};

constexpr int kLookupK = 10;
constexpr int kLooK = 7;
constexpr int kKPrime = 3;
constexpr int kSweepK[] = {1, 3, 5, 7, 9, 11, 13, 15};
constexpr int kSweepKPrime[] = {1, 2, 3, 4, 5};
constexpr int kSetupReps = 3;

const Workload& find_workload(const std::string& name, bool smoke) {
  const auto& table = smoke ? kSmokeWorkloads : kWorkloads;
  for (const Workload& w : table) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Arguments, statistics, JSON.

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stod(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad argument ") + argv[i]);
    }
    args.values.insert_or_assign(std::string(argv[i] + 2),
                                 std::string(argv[i + 1]));
  }
  return args;
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::ranges::sort(v);
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::ranges::sort(v);
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out(1, '"');
  out += obs::detail::json_escape(s);
  out += '"';
  return out;
}

/// Insertion-ordered JSON object of already-encoded values.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += json_string(key) + ":" + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Named measurements with units: {"name":{"value":v,"unit":u},...}.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    JsonObject m;
    m.num("value", value).str("unit", unit);
    entries_.insert_or_assign(name, m.dump());
  }
  [[nodiscard]] std::string dump() const {
    JsonObject o;
    for (const auto& [name, json] : entries_) o.raw(name, json);
    return o.dump();
  }

 private:
  std::map<std::string, std::string> entries_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Why this build must not produce numbers, or nullptr when it may. A
/// faster number from a build that drops checks is not the same program.
const char* ungated_build() {
#ifndef NDEBUG
  return "NDEBUG is not set (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is active";
#endif
  if (std::string_view(BENCH_E2E_CONTRACTS) != "throw") {
    return "contracts are not in throw mode (DARKVEC_CONTRACTS)";
  }
  if (!std::string_view(BENCH_E2E_SANITIZE).empty()) {
    return "the library is built with a sanitizer (DARKVEC_SANITIZE)";
  }
  return nullptr;
}

std::string environment_json(const Workload& w, std::uint64_t seed,
                             bool smoke) {
  const DarkVecConfig defaults;
  JsonObject params;
  params.str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("smoke", smoke ? 1 : 0)
      .num("days", w.days)
      .num("scale", w.scale)
      .num("epochs", w.epochs)
      .num("window_days", w.window_days)
      .num("step_days", w.step_days)
      .num("lookups_per_iteration", w.lookups)
      .num("dim", defaults.w2v.dim)
      .num("window", defaults.w2v.window)
      .num("sgns_threads", defaults.w2v.threads);
  JsonObject env;
  env.str("build_type", BENCH_E2E_BUILD_TYPE)
      .str("compiler", BENCH_E2E_COMPILER)
      .str("cxx_flags", BENCH_E2E_CXX_FLAGS)
      .str("contracts", BENCH_E2E_CONTRACTS)
      .str("sanitizer", "none")
      .str("cpu_model", cpu_model())
      .str("simd_level", simd::level_name(simd::active_level()))
      .num("pool_threads", core::ThreadPool::global().size())
      .num("nproc", nproc())
      .raw("params", params.dump());
  return env.dump();
}

// ---------------------------------------------------------------------------
// Inputs. The label file is the darkvec CLI's "src,class,group" format.

std::string trace_path(const std::string& dir) { return dir + "/trace.csv"; }
std::string labels_path(const std::string& dir) {
  return dir + "/labels.csv";
}

void write_labels(const std::string& path, const sim::SimResult& sim) {
  std::ofstream out(path);
  out << "src,class,group\n";
  for (const auto& [ip, group] : sim.groups) {
    out << ip.to_string() << ',' << to_string(sim::label_of(sim.labels, ip))
        << ',' << group << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

void read_labels(const std::string& path, sim::LabelMap* labels,
                 sim::GroupMap* groups) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::stringstream row(line);
    std::string src, cls, group;
    std::getline(row, src, ',');
    std::getline(row, cls, ',');
    std::getline(row, group, ',');
    const auto ip = net::IPv4::parse(src);
    if (!ip) throw std::runtime_error("bad address in " + path);
    const sim::GtClass parsed = sim::parse_gt_class(cls);
    if (parsed != sim::GtClass::kUnknown) (*labels)[*ip] = parsed;
    if (!group.empty()) (*groups)[*ip] = group;
  }
}

// ---------------------------------------------------------------------------
// One run's bookkeeping.

/// Quality outputs of one pass. Single-threaded SGNS makes the pipeline
/// deterministic, so every pass of a run, traced or not, facade or layer
/// by layer, must produce the same bits.
struct Outcome {
  std::vector<double> accuracy;
  std::vector<double> coverage;
  std::vector<double> modularity;
  std::vector<int> communities;
  std::vector<double> alignment;
  std::vector<int> assignment;   ///< headline clustering
  std::vector<float> embedding;  ///< last model's rows
  bool operator==(const Outcome&) const = default;
};

/// Work done, counted where the benchmark calls the library.
struct Work {
  double packets = 0;       ///< trace records read
  double vocab = 0;         ///< senders embedded, summed over fits
  double dot_products = 0;  ///< k-NN dot products, from sizes
  double all_pairs = 0;     ///< one all-pairs pass per fitted model
};

class Session {
 public:
  Session(const Workload& w, std::uint64_t seed, std::string dir)
      : workload(w), rng(seed), dir_(std::move(dir)) {
    config.w2v.epochs = w.epochs;
    read_labels(labels_path(dir_), &labels, &groups);
  }

  const Workload& workload;
  DarkVecConfig config;
  sim::LabelMap labels;
  sim::GroupMap groups;
  std::mt19937_64 rng;
  Work work;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> job_s;
  std::vector<double> lookup_us;

  [[nodiscard]] net::Trace read_trace() {
    obs::Span span("net/read_csv");
    net::Trace trace = net::read_csv_file(trace_path(dir_), io::IoPolicy{});
    work.packets += static_cast<double>(trace.size());
    return trace;
  }

  /// Counts one operation; a failed one is also recorded by name.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }

  /// Every pass must reproduce the first pass's outputs bit for bit.
  void same_as_first(const Outcome& out, const char* what) {
    if (!first_) {
      first_ = out;
    } else if (!(out == *first_)) {
      fail(std::string(what) + ": outputs differ from the first pass");
    }
  }
  [[nodiscard]] const std::optional<Outcome>& first() const { return first_; }

 private:
  std::string dir_;
  std::optional<Outcome> first_;
};

bool all_finite(std::span<const float> values) {
  return std::ranges::all_of(values, [](float v) { return std::isfinite(v); });
}

/// A lookup answer is well formed when it holds min(k, n-1) neighbours,
/// sorted by descending similarity, none of them the query itself.
bool well_formed(const std::vector<ml::Neighbor>& nb, std::size_t query,
                 std::size_t n) {
  if (nb.size() != std::min<std::size_t>(kLookupK, n - 1)) return false;
  for (std::size_t i = 0; i < nb.size(); ++i) {
    if (nb[i].index == query || nb[i].index >= n ||
        !std::isfinite(nb[i].similarity) ||
        (i > 0 && nb[i].similarity > nb[i - 1].similarity)) {
      return false;
    }
  }
  return true;
}

/// Seeded-random single-sender lookups, as `darkvec neighbors` runs them.
void run_lookups(Session& s, const ml::CosineKnn& knn) {
  const std::size_t n = knn.size();
  if (n < 2) {
    s.fail("lookups: index holds fewer than two senders");
    return;
  }
  for (int i = 0; i < s.workload.lookups; ++i) {
    const std::size_t row = s.rng() % n;
    const auto t0 = Clock::now();
    std::vector<ml::Neighbor> nb;
    {
      obs::Span span("ml/lookup");
      nb = knn.query(row, kLookupK, ml::AnnSearchParams{});
    }
    s.lookup_us.push_back(1e6 * since(t0));
    s.op(well_formed(nb, row, n), "lookup returned a malformed list");
  }
  s.work.dot_products +=
      static_cast<double>(s.workload.lookups) * static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// month_batch: the paper's monthly job as `darkvec classify` plus
// `darkvec cluster` run it. SGNS dominates; k-NN and Louvain are small.

void check_month(Session& s, const Outcome& out, std::size_t inspected) {
  const std::uint64_t failed_before = s.failed;
  if (!all_finite(out.embedding)) s.fail("non-finite embedding");
  if (out.coverage[0] != 1.0) s.fail("coverage below 1.0");
  if (!(out.accuracy[0] >= s.workload.min_accuracy)) {
    s.fail("loo_accuracy " + std::to_string(out.accuracy[0]) + " below " +
           std::to_string(s.workload.min_accuracy));
  }
  if (!(out.modularity[0] >= s.workload.min_modularity)) {
    s.fail("modularity " + std::to_string(out.modularity[0]) + " below " +
           std::to_string(s.workload.min_modularity));
  }
  if (inspected == 0) s.fail("inspector returned no clusters");
  s.same_as_first(out, "month_batch");
  s.op(s.failed == failed_before, "month_batch pipeline");
}

void count_fit(Session& s, std::size_t vocab, std::size_t loo_queries) {
  const auto n = static_cast<double>(vocab);
  s.work.vocab += n;
  s.work.dot_products += static_cast<double>(loo_queries) * n + n * n;
  s.work.all_pairs += n * n;
}

void month_facade(Session& s) {
  const auto t0 = Clock::now();
  const net::Trace trace = s.read_trace();
  DarkVec dv(s.config);
  dv.fit(trace);
  const auto eval_ips = last_day_active_senders(trace);
  const KnnEvaluation eval =
      evaluate_knn(dv, s.labels, eval_ips, kLooK, ml::AnnSearchParams{});
  const Clustering clustering = dv.cluster(kKPrime, 1, ml::AnnSearchParams{});
  const auto clusters =
      inspect_clusters(trace, dv.corpus(), clustering.assignment, s.groups);
  s.job_s.push_back(since(t0));

  Outcome out;
  out.accuracy = {eval.accuracy};
  out.coverage = {eval.coverage()};
  out.modularity = {clustering.modularity};
  out.communities = {clustering.count};
  out.assignment = clustering.assignment;
  out.embedding = dv.embedding().data();
  count_fit(s, dv.corpus().vocabulary_size(), eval.covered);
  check_month(s, out, clusters.size());
  run_lookups(s, dv.knn());
}

/// Fits one model layer by layer: service map, corpus, SGNS.
struct LayerModel {
  corpus::Corpus corpus;
  std::optional<w2v::SkipGramModel> sgns;
  std::optional<ml::CosineKnn> knn;
};

void fit_layers(const Session& s, const net::Trace& trace, LayerModel& m) {
  std::unique_ptr<corpus::ServiceMap> services;
  {
    obs::Span span("corpus/service_map");
    services = corpus::make_service_map(s.config.services, trace,
                                        s.config.auto_top_n);
  }
  {
    obs::Span span("corpus/build");
    m.corpus = corpus::build_corpus(trace, *services, s.config.corpus);
  }
  {
    obs::Span span("w2v/train");
    m.sgns.emplace(m.corpus.vocabulary_size(), s.config.w2v);
    (void)m.sgns->train(m.corpus.sentences, s.config.train);
  }
  obs::Span span("ml/normalize");
  m.knn.emplace(m.sgns->embedding());
}

/// The same pipeline with every layer called directly in its own span.
void month_layers(Session& s) {
  Outcome out;
  LayerModel m;
  std::size_t inspected = 0;
  {
    obs::Span job("bench/job");
    const net::Trace trace = s.read_trace();
    fit_layers(s, trace, m);
    std::vector<net::IPv4> eval_ips;
    {
      obs::Span span("core/eval_set");
      eval_ips = last_day_active_senders(trace);
    }
    {
      obs::Span span("ml/loo");
      const KnnEvaluation eval = evaluate_knn_vectors(
          m.sgns->embedding(), m.corpus.words, s.labels, eval_ips, kLooK);
      out.accuracy = {eval.accuracy};
      out.coverage = {eval.coverage()};
      count_fit(s, m.corpus.vocabulary_size(), eval.covered);
    }
    std::optional<graph::WeightedGraph> g;
    {
      obs::Span span("graph/knn_graph");
      g.emplace(graph::knn_graph(*m.knn, kKPrime, ml::AnnSearchParams{}));
    }
    graph::LouvainResult lr;
    {
      obs::Span span("graph/louvain");
      lr = graph::louvain(*g, graph::LouvainOptions{});
    }
    {
      obs::Span span("core/inspect");
      inspected =
          inspect_clusters(trace, m.corpus, lr.community, s.groups).size();
    }
    out.modularity = {lr.modularity};
    out.communities = {lr.count};
    out.assignment = lr.community;
    out.embedding = m.sgns->embedding().data();
  }
  check_month(s, out, inspected);
  obs::Span post("bench/post");
  run_lookups(s, *m.knn);
}

// ---------------------------------------------------------------------------
// analyst_sweeps: one fitted model, then the paper's Fig. 7 k-sweep and
// Fig. 10 k'-sweep plus single-sender lookups. k-NN and Louvain do all of
// the timed work; SGNS runs only in set-up.

void check_sweep(Session& s, const Outcome& out, std::size_t eval_points,
                 std::size_t vocab) {
  const auto n = static_cast<double>(vocab);
  for (std::size_t i = 0; i < out.accuracy.size(); ++i) {
    const bool gated = kSweepK[i] == kLooK;
    s.op(out.coverage[i] == 1.0 && std::isfinite(out.accuracy[i]) &&
             (!gated || out.accuracy[i] >= s.workload.min_accuracy),
         "k-sweep evaluation k=" + std::to_string(kSweepK[i]) +
             " accuracy " + std::to_string(out.accuracy[i]));
    s.work.dot_products += static_cast<double>(eval_points) * n;
  }
  for (std::size_t i = 0; i < out.modularity.size(); ++i) {
    const bool gated = kSweepKPrime[i] == kKPrime;
    s.op(out.communities[i] > 0 && std::isfinite(out.modularity[i]) &&
             (!gated || out.modularity[i] >= s.workload.min_modularity),
         "k'-sweep clustering k'=" + std::to_string(kSweepKPrime[i]) +
             " modularity " + std::to_string(out.modularity[i]));
    s.work.dot_products += n * n;
  }
  if (!all_finite(out.embedding)) s.fail("non-finite embedding");
  s.same_as_first(out, "analyst_sweeps");
}

struct AnalystModel {
  DarkVec dv;
  std::vector<net::IPv4> eval_ips;
};

/// Set-up half of an analyst session: load, fit, and build the lazily
/// built k-NN index, which an interactive session pays once.
AnalystModel analyst_prepare(Session& s) {
  AnalystModel m{DarkVec(s.config), {}};
  const net::Trace trace = s.read_trace();
  m.dv.fit(trace);
  m.eval_ips = last_day_active_senders(trace);
  (void)m.dv.knn();
  count_fit(s, m.dv.corpus().vocabulary_size(), 0);
  return m;
}

void analyst_facade(Session& s, const AnalystModel& m) {
  Outcome out;
  const auto t0 = Clock::now();
  for (const int k : kSweepK) {
    const KnnEvaluation eval =
        evaluate_knn(m.dv, s.labels, m.eval_ips, k, ml::AnnSearchParams{});
    out.accuracy.push_back(eval.accuracy);
    out.coverage.push_back(eval.coverage());
  }
  for (const int kp : kSweepKPrime) {
    Clustering c = m.dv.cluster(kp, 1, ml::AnnSearchParams{});
    out.modularity.push_back(c.modularity);
    out.communities.push_back(c.count);
    if (kp == kKPrime) out.assignment = std::move(c.assignment);
  }
  s.job_s.push_back(since(t0));
  out.embedding = m.dv.embedding().data();
  check_sweep(s, out, m.eval_ips.size(), m.dv.corpus().vocabulary_size());
  run_lookups(s, m.dv.knn());
}

void analyst_layers(Session& s) {
  Outcome out;
  LayerModel m;
  std::vector<net::IPv4> eval_ips;
  {
    obs::Span prep("bench/prep");
    const net::Trace trace = s.read_trace();
    fit_layers(s, trace, m);
    obs::Span span("core/eval_set");
    eval_ips = last_day_active_senders(trace);
  }
  count_fit(s, m.corpus.vocabulary_size(), 0);
  {
    obs::Span job("bench/job");
    for (const int k : kSweepK) {
      obs::Span span("ml/loo");
      const KnnEvaluation eval = evaluate_knn_vectors(
          m.sgns->embedding(), m.corpus.words, s.labels, eval_ips, k);
      out.accuracy.push_back(eval.accuracy);
      out.coverage.push_back(eval.coverage());
    }
    for (const int kp : kSweepKPrime) {
      std::optional<graph::WeightedGraph> g;
      {
        obs::Span span("graph/knn_graph");
        g.emplace(graph::knn_graph(*m.knn, kp, ml::AnnSearchParams{}));
      }
      obs::Span span("graph/louvain");
      graph::LouvainResult lr = graph::louvain(*g, graph::LouvainOptions{});
      out.modularity.push_back(lr.modularity);
      out.communities.push_back(lr.count);
      if (kp == kKPrime) out.assignment = std::move(lr.community);
    }
  }
  out.embedding = m.sgns->embedding().data();
  check_sweep(s, out, eval_ips.size(), m.corpus.vocabulary_size());
  obs::Span post("bench/post");
  run_lookups(s, *m.knn);
}

// ---------------------------------------------------------------------------
// stream_fortnight: `darkvec stream` — the window re-fit every step,
// clustered, Procrustes-aligned and health-monitored. Its traced run needs
// no decomposition: the library already spans every stage of it.

void stream_pass(Session& s, const net::Trace& trace) {
  StreamingConfig config;
  config.darkvec = s.config;
  config.window_seconds = s.workload.window_days * net::kSecondsPerDay;
  config.step_seconds = s.workload.step_days * net::kSecondsPerDay;
  config.k_prime = kKPrime;
  config.align = true;
  config.health = true;

  const auto t0 = Clock::now();
  const StreamingResult result = [&] {
    obs::Span job("bench/job");
    return run_streaming_monitored(trace, config);
  }();
  s.job_s.push_back(since(t0));

  Outcome out;
  std::size_t good = 0;
  for (std::size_t i = 0; i < result.snapshots.size(); ++i) {
    const StreamSnapshot& snap = result.snapshots[i];
    if (snap.degraded) continue;
    ++good;
    out.modularity.push_back(snap.clustering.modularity);
    out.communities.push_back(snap.clustering.count);
    if (i > 0) out.alignment.push_back(snap.alignment_similarity);
    count_fit(s, snap.senders.size(), 0);
    if (!all_finite(snap.embedding.data())) {
      s.fail("non-finite embedding in window " + std::to_string(i));
    }
  }
  // One operation per scheduled window: a degraded or missing window, or
  // an early stop, is a failed one.
  for (int i = 0; i < s.workload.windows; ++i) {
    s.op(result.completed && static_cast<std::size_t>(i) < good,
         "stream window " + std::to_string(i) + " degraded or missing");
  }
  if (result.snapshots.size() != static_cast<std::size_t>(s.workload.windows)) {
    s.fail("stream scheduled " + std::to_string(result.snapshots.size()) +
           " windows, want " + std::to_string(s.workload.windows));
  }
  if (result.snapshots.empty() || result.snapshots.back().degraded) return;

  // The analyst's view of every window (LOO accuracy, as in the paper,
  // on the window's last-day senders) and lookups on the latest one. One
  // window's accuracy swings with its few evaluated senders; the mean
  // over the windows is steady across seeds.
  obs::Span post("bench/post");
  for (const StreamSnapshot& snap : result.snapshots) {
    if (snap.degraded) continue;
    std::vector<net::IPv4> eval_ips;
    {
      obs::Span span("core/eval_set");
      eval_ips = last_day_active_senders(
          trace.slice(snap.window_start, snap.window_end));
    }
    obs::Span span("ml/loo");
    const KnnEvaluation eval = evaluate_knn_vectors(
        snap.embedding, snap.senders, s.labels, eval_ips, kLooK);
    out.accuracy.push_back(eval.accuracy);
    out.coverage.push_back(eval.coverage());
    s.work.dot_products += static_cast<double>(eval.covered) *
                           static_cast<double>(snap.senders.size());
  }
  const StreamSnapshot& last = result.snapshots.back();
  out.assignment = last.clustering.assignment;
  out.embedding = last.embedding.data();
  s.same_as_first(out, "stream_fortnight");
  std::optional<ml::CosineKnn> knn;
  {
    obs::Span span("ml/normalize");
    knn.emplace(last.embedding);
  }
  run_lookups(s, *knn);
}

/// The headline quality numbers of a run's (identical) passes.
void quality_metrics(const Session& s, Metrics& metrics) {
  if (!s.first()) return;
  const Outcome& o = *s.first();
  const std::string_view name = s.workload.name;
  if (name == "stream_fortnight") {
    metrics.set("loo_accuracy", mean(o.accuracy), "ratio");
    metrics.set("modularity", mean(o.modularity), "ratio");
    metrics.set("alignment_similarity", mean(o.alignment), "ratio");
    metrics.set("graph.communities", o.communities.back(), "count");
  } else {
    const std::size_t a = name == "analyst_sweeps" ? 3 : 0;  // k=7
    const std::size_t c = name == "analyst_sweeps" ? 2 : 0;  // k'=3
    metrics.set("loo_accuracy", o.accuracy.at(a), "ratio");
    metrics.set("modularity", o.modularity.at(c), "ratio");
    metrics.set("graph.communities", o.communities.at(c), "count");
  }
}

// ---------------------------------------------------------------------------
// Per-layer self times from the recorded spans.

/// Layer of a span: the name up to the first '.' or '/', with the
/// library's own span names mapped onto the repo's modules.
std::string layer_of(std::string_view name) {
  if (name == "darkvec.fit") return "corpus";  // fit minus w2v.train
  if (name == "darkvec.cluster") return "ml";  // the lazy CosineKnn build
  const std::string head(name.substr(0, name.find_first_of("./")));
  if (head == "io") return "net";
  if (head == "stream" || head == "darkvec") return "core";
  return head;
}

struct LayerTable {
  double wall_s = 0;
  std::map<std::string, double> self_s;
};

struct PassTrace {
  double wall_s = 0;
  std::map<std::string, LayerTable> phases;  ///< "pass", "prep", "job", ...
  std::map<std::string, double> total_s;     ///< inclusive, per span name
  std::map<std::string, double> self_s;      ///< self, per span name
};

/// Self time of a span is its duration minus its direct children's, on
/// the thread that opened the pass; pool workers' spans overlap their
/// parent and are left out. Health observation is timed by a gauge, not a
/// span, so its share of the windows' self time moves from core to obs.
PassTrace layer_times(const std::vector<obs::TraceEvent>& all,
                      double health_observe_s) {
  PassTrace out;
  const auto root = std::ranges::find_if(all, [](const obs::TraceEvent& e) {
    return std::string_view(e.name) == "bench/pass";
  });
  if (root == all.end()) return out;
  std::vector<obs::TraceEvent> events;
  std::ranges::copy_if(all, std::back_inserter(events), [&](const auto& e) {
    return e.thread_id == root->thread_id && e.start_ns >= root->start_ns &&
           e.start_ns + e.dur_ns <= root->start_ns + root->dur_ns;
  });
  std::ranges::sort(events, [](const auto& a, const auto& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.dur_ns > b.dur_ns;
  });
  const std::size_t none = events.size();
  std::vector<std::int64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> parent(events.size(), none);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!open.empty() &&
           events[open.back()].start_ns + events[open.back()].dur_ns <=
               events[i].start_ns) {
      open.pop_back();
    }
    if (!open.empty()) {
      parent[i] = open.back();
      child_ns[open.back()] += events[i].dur_ns;
    }
    open.push_back(i);
  }

  double health_spans_s = 0;  // the health probe's spanned k-NN batches
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string_view name = events[i].name;
    const double dur_s = 1e-9 * static_cast<double>(events[i].dur_ns);
    const double self_s =
        1e-9 * static_cast<double>(events[i].dur_ns - child_ns[i]);
    out.total_s[std::string(name)] += dur_s;
    out.self_s[std::string(name)] += self_s;
    if (name.rfind("bench/", 0) == 0) {
      out.phases[std::string(name.substr(6))].wall_s = dur_s;
    }
    if (parent[i] != none &&
        std::string_view(events[parent[i]].name) == "stream.window" &&
        name.rfind("darkvec.", 0) != 0) {
      health_spans_s += dur_s;
    }
    std::string phase = "pass";
    for (std::size_t p = parent[i]; p != none; p = parent[p]) {
      const std::string_view pn = events[p].name;
      if (pn.rfind("bench/", 0) == 0 && pn != "bench/pass") {
        phase = std::string(pn.substr(6));
        break;
      }
    }
    const std::string layer = layer_of(name);
    out.phases["pass"].self_s[layer] += self_s;
    if (phase != "pass") out.phases[phase].self_s[layer] += self_s;
  }
  const double obs_s = std::max(0.0, health_observe_s - health_spans_s);
  if (obs_s > 0) {
    for (const char* phase : {"pass", "job"}) {
      out.phases[phase].self_s["core"] -= obs_s;
      out.phases[phase].self_s["obs"] += obs_s;
    }
  }
  out.wall_s = 1e-9 * static_cast<double>(root->dur_ns);
  return out;
}

std::string layer_json(const PassTrace& t) {
  JsonObject phases;
  for (const auto& [phase, table] : t.phases) {
    JsonObject self;
    for (const auto& [layer, s] : table.self_s) self.num(layer, s);
    JsonObject p;
    p.num("wall_s", table.wall_s).raw("self_s", self.dump());
    phases.raw(phase, p.dump());
  }
  JsonObject totals;
  for (const auto& [name, s] : t.total_s) totals.num(name, s);
  JsonObject o;
  o.num("wall_s", t.wall_s)
      .raw("phases", phases.dump())
      .raw("span_total_s", totals.dump());
  return o.dump();
}

/// Registry counters the library already keeps, read as deltas.
struct CounterSnapshot {
  std::uint64_t pairs = obs::counter(obs::names::kW2vPairs).value();
  std::uint64_t tokens = obs::counter(obs::names::kW2vTokens).value();
  std::uint64_t edges = obs::counter(obs::names::kKnnGraphEdges).value();
  std::uint64_t levels = obs::counter(obs::names::kLouvainLevels).value();
  std::uint64_t moves = obs::counter(obs::names::kLouvainMoves).value();
  std::uint64_t alerts = obs::counter(obs::names::kHealthAlerts).value();
  double observe_s = obs::gauge(obs::names::kHealthObserveSeconds).value();
};

// ---------------------------------------------------------------------------
// Runs.

using Pass = std::function<void()>;

bool keep_going(Clock::time_point t0, double seconds, int passes,
                int minimum) {
  return passes < minimum || since(t0) < seconds;
}

/// The closed loop every end-to-end number comes from: one client runs
/// the workload back to back for `seconds`, tracing off.
void timed_run(Session& s, const Pass& iteration, double seconds,
               Metrics& metrics) {
  int passes = 0;
  for (const auto t0 = Clock::now(); keep_going(t0, seconds, passes, 1);
       ++passes) {
    try {
      iteration();
    } catch (const std::exception& e) {
      s.op(false, std::string("stage threw: ") + e.what());
    }
  }
  metrics.set("job_s", median(s.job_s), "s");
  metrics.set("lookup_p50_us", median(s.lookup_us), "us");
}

/// The traced run: untraced and traced passes of the layer-by-layer
/// pipeline alternate (their ratio is the tracing overhead); the last
/// traced pass gives the per-layer numbers.
void traced_run(Session& s, const Pass& pass, double seconds,
                const std::string& chrome_out, Metrics& metrics,
                std::string* layers) {
  obs::Tracer& tracer = obs::Tracer::instance();
  std::vector<double> wall_s[2];
  PassTrace last;
  CounterSnapshot before;
  CounterSnapshot after;
  Work work;
  int passes = 0;
  for (const auto t0 = Clock::now(); keep_going(t0, seconds, passes, 2);
       ++passes) {
    const bool on = passes % 2 == 1;
    tracer.clear();
    tracer.set_enabled(on);
    const CounterSnapshot start;
    const Work work0 = s.work;
    const auto t_pass = Clock::now();
    try {
      obs::Span root("bench/pass");
      pass();
    } catch (const std::exception& e) {
      s.op(false, std::string("stage threw: ") + e.what());
    }
    wall_s[on].push_back(since(t_pass));
    tracer.set_enabled(false);
    if (!on) continue;
    before = start;
    after = CounterSnapshot{};
    work = Work{s.work.packets - work0.packets, s.work.vocab - work0.vocab,
                s.work.dot_products - work0.dot_products,
                s.work.all_pairs - work0.all_pairs};
    last = layer_times(tracer.events(), after.observe_s - before.observe_s);
    if (!chrome_out.empty()) tracer.write_chrome_trace_file(chrome_out);
  }

  const auto span_s = [&](const char* name) {
    const auto it = last.total_s.find(name);
    return it == last.total_s.end() ? 0.0 : it->second;
  };
  const auto self_s = [&](const std::string& layer) {
    const auto& table = last.phases["pass"].self_s;
    const auto it = table.find(layer);
    return it == table.end() ? 0.0 : it->second;
  };
  const auto count = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double pairs = count(before.pairs, after.pairs);
  const double train_s = span_s("w2v.train");
  metrics.set("net.read_csv_s", span_s("io.read_csv"), "s");
  metrics.set("net.packets", work.packets, "count");
  metrics.set("corpus.service_map_s", span_s("corpus/service_map"), "s");
  metrics.set("corpus.build_s", span_s("corpus/build"), "s");
  metrics.set("corpus.tokens",
              count(before.tokens, after.tokens) / s.workload.epochs,
              "count");
  metrics.set("corpus.vocab", work.vocab, "count");
  metrics.set("w2v.train_s", train_s, "s");
  metrics.set("w2v.pairs", pairs, "count");
  metrics.set("w2v.ns_per_pair", pairs > 0 ? 1e9 * train_s / pairs : 0,
              "ns");
  const auto cluster_self = last.self_s.find("darkvec.cluster");
  metrics.set("ml.normalize_s",
              span_s("ml/normalize") + (cluster_self == last.self_s.end()
                                            ? 0.0
                                            : cluster_self->second),
              "s");
  metrics.set("ml.loo_s", span_s("ml/loo"), "s");
  metrics.set("ml.batch_topk_s", span_s("ml.batch_topk"), "s");
  // The p99 pools every lookup of the run, traced or not.
  metrics.set("ml.lookup_p99_us", quantile(s.lookup_us, 0.99), "us");
  metrics.set("ml.lookup_samples", static_cast<double>(s.lookup_us.size()),
              "count");
  metrics.set("ml.dot_products", work.dot_products, "count");
  metrics.set("ml.rescan_ratio",
              work.all_pairs > 0 ? work.dot_products / work.all_pairs : 0,
              "ratio");
  metrics.set("graph.knn_graph_s", span_s("graph.knn_graph"), "s");
  metrics.set("graph.louvain_s", span_s("graph.louvain"), "s");
  metrics.set("graph.edges", count(before.edges, after.edges), "count");
  metrics.set("graph.louvain_levels", count(before.levels, after.levels),
              "count");
  metrics.set("graph.louvain_moves", count(before.moves, after.moves),
              "count");
  metrics.set("core.inspect_s", span_s("core/inspect"), "s");
  metrics.set("obs.health_observe_s", after.observe_s - before.observe_s,
              "s");
  metrics.set("obs.health_alerts", count(before.alerts, after.alerts),
              "count");
  double layers_s = 0;
  for (const char* layer :
       {"net", "corpus", "w2v", "ml", "graph", "core", "obs", "bench"}) {
    metrics.set(std::string(layer) + ".self_s", self_s(layer), "s");
    if (std::string_view(layer) != "bench") layers_s += self_s(layer);
  }
  metrics.set("bench.trace_overhead",
              median(wall_s[1]) / median(wall_s[0]) - 1, "ratio");
  metrics.set("bench.traced_pass_s", last.wall_s, "s");
  metrics.set("bench.self_coverage",
              last.wall_s > 0 ? layers_s / last.wall_s : 0, "ratio");
  *layers = layer_json(last);
}

int cmd_gen(const Args& args) {
  const bool smoke = args.number("smoke", 0) != 0;
  const Workload& w = find_workload(args.get("workload"), smoke);
  const std::string dir = args.get("dir");
  sim::SimConfig config;
  config.days = w.days;
  config.scale = w.scale;
  config.seed = static_cast<std::uint64_t>(args.number("seed", 2021));

  std::vector<double> sim_s;
  std::vector<double> write_s;
  std::vector<double> setup_s;
  std::size_t packets = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const sim::SimResult sim =
        sim::DarknetSimulator(config).run(sim::paper_scenario());
    sim_s.push_back(since(t0));
    const auto t1 = Clock::now();
    net::write_csv_file(trace_path(dir), sim.trace);
    write_labels(labels_path(dir), sim);
    write_s.push_back(since(t1));
    setup_s.push_back(since(t0));
    packets = sim.trace.size();
  }
  JsonObject o;
  o.num("setup_s", median(setup_s))
      .num("sim_s", median(sim_s))
      .num("write_s", median(write_s))
      .num("packets", static_cast<double>(packets))
      .num("reps", kSetupReps);
  std::printf("%s\n", o.dump().c_str());
  return 0;
}

int cmd_run(const Args& args) {
  const bool smoke = args.number("smoke", 0) != 0;
  const Workload& w = find_workload(args.get("workload"), smoke);
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 2021));
  const double seconds = args.number("seconds", 20);
  const bool traced = args.number("trace", 0) != 0;
  const std::string_view name = w.name;

  const auto t_prep = Clock::now();
  Session s(w, seed, args.get("dir"));
  Metrics metrics;
  std::string layers = "null";
  if (!traced) {
    Pass iteration;
    std::optional<AnalystModel> analyst;
    std::optional<net::Trace> trace;
    if (name == "month_batch") {
      iteration = [&] { month_facade(s); };
    } else if (name == "analyst_sweeps") {
      analyst.emplace(analyst_prepare(s));
      iteration = [&] { analyst_facade(s, *analyst); };
    } else {
      trace.emplace(s.read_trace());
      iteration = [&] { stream_pass(s, *trace); };
    }
    metrics.set("prep_s", since(t_prep), "s");
    timed_run(s, iteration, seconds, metrics);
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (name == "stream_fortnight") {
      metrics.set("windows_per_s", w.windows / median(s.job_s), "1/s");
    }
  } else {
    // Batch workloads run the facade once first, and every layer-by-layer
    // pass must match it. The stream's library calls carry their own
    // spans, so its passes are facade runs and the first is the reference.
    Pass pass;
    if (name == "month_batch") {
      month_facade(s);
      pass = [&] { month_layers(s); };
    } else if (name == "analyst_sweeps") {
      analyst_facade(s, analyst_prepare(s));
      pass = [&] { analyst_layers(s); };
    } else {
      pass = [&] {
        const net::Trace trace = [&] {
          obs::Span prep("bench/prep");
          return s.read_trace();
        }();
        stream_pass(s, trace);
      };
    }
    traced_run(s, pass, seconds,
               args.values.contains("chrome-out") ? args.get("chrome-out")
                                                  : std::string(),
               metrics, &layers);
  }
  quality_metrics(s, metrics);
  metrics.set("failure_share",
              static_cast<double>(s.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, s.attempted)),
              "ratio");

  std::string failures(1, '[');
  for (const std::string& f : s.failures) {
    if (failures.size() > 1) failures += ',';
    failures += json_string(f);
  }
  failures += ']';
  JsonObject o;
  o.str("workload", w.name)
      .raw("correct", s.failed == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(s.attempted))
      .num("failed", static_cast<double>(s.failed))
      .raw("metrics", metrics.dump())
      .raw("layers", layers)
      .raw("failures", failures)
      .raw("env", environment_json(w, seed, smoke));
  std::printf("%s\n", o.dump().c_str());
  return s.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* why = ungated_build()) {
    std::fprintf(stderr, "bench_e2e: refusing to run: %s\n", why);
    return 2;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_e2e gen|run --workload W --seed N --dir D "
                 "[--seconds S --trace 0|1] [--smoke 1]\n");
    return 2;
  }
  core::ThreadPool::set_global_threads(std::min(nproc(), 4));
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    if (command == "gen") return cmd_gen(args);
    if (command == "run") return cmd_run(args);
    std::fprintf(stderr, "bench_e2e: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
