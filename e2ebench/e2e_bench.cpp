// End-to-end benchmark of the distributed Laplacian solver stack.
//
//   e2e_bench --workload <cold-grid|warm-expander|batch-update-wgrid>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--build-id <id>]
//
// Each workload is a closed loop: one client in one process sends its next
// operation only after the previous one returned. The seed drives every
// right-hand side (RHS) and weight update. The loop's first operations (its
// deterministic prefix) fix the problem set; later operations pose the same
// problems again, in the same order. The graphs (generator seed 1), the
// solver stacks the timed loop serves and the edges of its full-rebuild
// update are fixed; outside the timed region the prefix RHS are solved again
// on a stack seeded from the seed (and, on batch-update-wgrid, after a
// full rebuild on seed-drawn edges), and those answers count too. Every
// answer is checked outside the timed region against the benchmark's own
// residual and a tight plain-CG reference. The last stdout line is one JSON
// object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones,
// measured from outside by timing calls into each layer's public functions
// (see LAYERS.md next to this file for the layer → end-to-end map).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "laplacian/elimination.hpp"
#include "laplacian/low_stretch_tree.hpp"
#include "laplacian/solver_cache.hpp"
#include "laplacian/ultra_sparsifier.hpp"
#include "linalg/csr.hpp"
#include "linalg/solvers.hpp"
#include "obs/trace.hpp"
#include "sim/sim_batch.hpp"
#include "util/thread_pool.hpp"

using namespace dls;

namespace {

// ---------------------------------------------------------------------------
// Fixed workload parameters.
// ---------------------------------------------------------------------------

constexpr double kEps = 1e-8;             // solver tolerance on every workload
constexpr double kRefTolerance = 1e-12;   // plain-CG reference tolerance
// ‖x − x_ref‖_L / ‖x_ref‖_L ≤ √κ · ‖r‖/‖b‖ ≤ √κ · 2ε, with κ = λ_max/λ₂.
// The weighted grid under its updates is the worst of the three graphs:
// weights stay within [1/6, 16·3.5·1.8] (a full-rebuild move divides by 6; a
// partial move multiplies by up to 3.5 while a rescale by up to 1.8 is in
// force), so λ_max ≤ 2·4·100.8 ≈ 806 and λ₂ ≥ 2(1 − cos(π/48))/6 ≈ 7.1e-4,
// κ ≤ 1.14e6 and √κ · 2ε ≤ 2.2e-5. The unit grid (κ ≈ 3.3e3) and the
// expander (λ₂ ≈ 4 − 2√3) sit far below. Passing answers have so far stayed
// under 3e-8.
constexpr double kLNormBound = 2.5e-5;
constexpr std::size_t kGridSide = 64;
constexpr std::size_t kExpanderNodes = 2048;
constexpr std::size_t kWgridSide = 48;
constexpr std::size_t kBatchSize = 16;
constexpr std::size_t kProbeBatch = 4;    // batch of the probes on single solves
// The graphs and the timed loop's solver stacks are fixed; --seed drives the
// RHS and the weight updates. The timed stacks use the cache's default seed:
// seeded from --seed, the cold-grid solve fails for some seeds (see
// LAYERS.md), and the spread of every timed metric across seeds would then
// reflect preconditioner luck rather than the code. check_seeded_stack keeps
// that luck visible in `failed`, outside the timed region.
const std::uint64_t kStackSeed = SolverCacheOptions{}.seed;
constexpr std::uint64_t kGraphSeed = 1;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index = 0) {
  return derive_scenario_seed(derive_scenario_seed(seed, salt), index);
}

// ---------------------------------------------------------------------------
// Wall-clock spans recorded by the benchmark around its calls into the
// program. Kept in memory, written as JSON when the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Runs f inside a span (when enabled) and returns its wall seconds.
  template <class F>
  double timed(const char* name, long op, F&& f) {
    std::size_t id = 0;
    if (enabled_) {
      id = spans_.size();
      spans_.push_back({name, 0.0, 0.0,
                        stack_.empty() ? -1L : static_cast<long>(stack_.back()),
                        op});
      stack_.push_back(id);
    }
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    if (enabled_) {
      spans_[id].start_us = us(t0);
      spans_[id].end_us = us(t1);
      stack_.pop_back();
    }
    return std::chrono::duration<double>(t1 - t0).count();
  }

  bool enabled() const { return enabled_; }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%ld,\"op\":%ld}%s\n",
                    i, s.name, s.start_us, s.end_us, s.parent, s.op,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    long parent;
    long op;  // -1 for set-up and probes
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", why.c_str());
  }
  void note(const std::string& line) { std::printf("%s\n", line.c_str()); }

  std::size_t attempted = 0;
  std::size_t failed = 0;

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" + metrics_[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

Vec random_rhs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec b(n);
  for (double& v : b) v = 2.0 * rng.next_double() - 1.0;
  project_mean_zero(b);
  return b;
}

std::vector<Vec> random_batch(std::size_t n, std::size_t count,
                              std::uint64_t seed) {
  std::vector<Vec> bs;
  bs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    bs.push_back(random_rhs(n, derive_scenario_seed(seed, i)));
  }
  return bs;
}

// ---------------------------------------------------------------------------
// Answer checks, independent of the solver's own residual bookkeeping.
// ---------------------------------------------------------------------------

/// y = L x, by an edge loop over the benchmark's own copy of the graph.
void edge_apply(const Graph& g, const Vec& x, Vec& y) {
  y.assign(g.num_nodes(), 0.0);
  for (const Edge& e : g.edges()) {
    const double f = e.weight * (x[e.u] - x[e.v]);
    y[e.u] += f;
    y[e.v] -= f;
  }
}

/// ‖x‖_L² = Σ_e w_e (x_u − x_v)².
double energy(const Graph& g, const Vec& x) {
  double s = 0.0;
  for (const Edge& e : g.edges()) {
    const double d = x[e.u] - x[e.v];
    s += e.weight * d * d;
  }
  return s;
}

class AnswerChecker {
 public:
  explicit AnswerChecker(Report& report) : report_(report) {}

  /// Call when the graph's weights change.
  void set_graph(const Graph& g) {
    graph_ = &g;
    csr_.rebuild(g);
  }

  /// Checks one answer to a problem posed once; a failing answer is
  /// counted, never dropped.
  bool check(const Vec& b, const LaplacianSolveReport& r, long op) {
    const bool passed = verdict(b, r, op);
    ++report_.attempted;
    if (!passed) ++report_.failed;
    return passed;
  }

  /// Checks an answer to problem `slot` of the loop's fixed problem set,
  /// which the loop poses again and again. `attempted` counts problems, and a
  /// problem fails if any answer to it fails, so both counts depend on the
  /// seed and the program, not on how many operations a run had time for.
  /// An answer bit-identical to the problem's first answer is the same
  /// output and keeps its verdict; any other answer is checked in full.
  bool check_slot(std::size_t slot, const Vec& b, const LaplacianSolveReport& r,
                  long op) {
    const auto [it, first] = first_answers_.try_emplace(slot);
    FirstAnswer& seen = it->second;
    if (first) {
      seen = {r.x, check(b, r, op)};
      return seen.passed;
    }
    if (seen.x == r.x) {
      ++repeats_;
      return seen.passed;
    }
    ++differing_;
    const bool passed = verdict(b, r, op);
    if (!passed && seen.passed) {
      seen.passed = false;
      ++report_.failed;
    }
    return passed;
  }

  /// One line on the answers to problems posed again.
  std::string repeat_summary() const {
    return "repeated problems: " + std::to_string(repeats_) +
           " answers bit-identical to the problem's first answer, " +
           std::to_string(differing_) + " differing (each checked in full)";
  }

  /// Plain CG iterations to the solver's own ε on this RHS.
  std::size_t cg_iterations_at_eps(const Vec& b) {
    SolveOptions opts;
    opts.tolerance = kEps;
    return solve_laplacian_cg(csr_, b, opts, ws_).iterations;
  }

  double worst_residual() const { return worst_residual_; }
  double worst_error() const { return worst_error_; }

 private:
  /// Whether the answer x to L x = b passes all three checks.
  bool verdict(const Vec& b, const LaplacianSolveReport& r, long op) {
    std::string why;
    Vec pb = b;
    project_mean_zero(pb);
    if (!r.converged) why += " not-converged";
    double rel = 0.0;
    double err = 0.0;
    if (r.x.size() != pb.size()) {
      why += " wrong-size";
    } else {
      edge_apply(*graph_, r.x, lx_);
      Vec res(pb.size());
      for (std::size_t i = 0; i < pb.size(); ++i) res[i] = pb[i] - lx_[i];
      project_mean_zero(res);
      rel = norm2(res) / norm2(pb);
      if (!(rel <= 2.0 * kEps)) why += " residual";
      SolveOptions opts;
      opts.tolerance = kRefTolerance;
      const SolveResult ref = solve_laplacian_cg(csr_, pb, opts, ws_);
      if (!ref.converged) why += " reference-not-converged";
      Vec diff(pb.size());
      for (std::size_t i = 0; i < pb.size(); ++i) diff[i] = r.x[i] - ref.x[i];
      err = std::sqrt(energy(*graph_, diff) / energy(*graph_, ref.x));
      if (!(err <= kLNormBound)) why += " l-norm-error";
    }
    worst_residual_ = std::max(worst_residual_, rel);
    worst_error_ = std::max(worst_error_, err);
    if (why.empty()) return true;
    char line[200];
    std::snprintf(line, sizeof line,
                  "op %ld failed:%s (outer %zu, residual %.3e, L-norm err %.3e)",
                  op, why.c_str(), r.outer_iterations, rel, err);
    if (r.converged) {
      // The solver claimed success for a wrong answer: an incorrect output,
      // not just a failed operation.
      report_.fail(line);
    } else {
      std::fprintf(stderr, "e2e_bench: %s\n", line);
    }
    return false;
  }

  Report& report_;
  const Graph* graph_ = nullptr;
  LaplacianCsr csr_;
  SolveWorkspace ws_;
  Vec lx_;
  double worst_residual_ = 0.0;
  double worst_error_ = 0.0;
  struct FirstAnswer {
    Vec x;
    bool passed = false;
  };
  std::map<std::size_t, FirstAnswer> first_answers_;
  std::size_t repeats_ = 0;
  std::size_t differing_ = 0;
};

// ---------------------------------------------------------------------------
// Accounting helpers.
// ---------------------------------------------------------------------------

std::uint64_t ledger_rounds(const RoundLedger& l) {
  return l.total_local() + l.total_global();
}

/// Heap bytes of the ledger's entry log: the entry array plus each label's
/// out-of-line buffer (labels within the small-string buffer cost nothing).
double ledger_mb(const RoundLedger& l) {
  const std::string empty;
  std::size_t bytes = l.entries().capacity() * sizeof(LedgerEntry);
  for (const LedgerEntry& e : l.entries()) {
    if (e.label.capacity() > empty.capacity()) bytes += e.label.capacity() + 1;
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Counts the run's deterministic prefix: the first `prefix_ops` operations,
/// which every run executes whatever its speed.
struct PrefixCounts {
  std::uint64_t rounds = 0;
  std::uint64_t rhs = 0;
  std::uint64_t pa_calls = 0;
  std::uint64_t ledger_entries = 0;
  std::vector<double> outer_iterations;
  std::vector<double> iters_over_cg;  // traced run only
  // Set-up plus the prefix: fixed work, unlike the rest of the run, whose
  // length (and, with rebuilt chains, whose high-water mark) varies.
  double peak_rss_mb = 0.0;

  void add_reports(const std::vector<LaplacianSolveReport>& reports) {
    rhs += reports.size();
    for (const auto& r : reports) {
      pa_calls += r.pa_calls;
      outer_iterations.push_back(static_cast<double>(r.outer_iterations));
    }
  }
  double per_rhs(std::uint64_t v) const {
    return static_cast<double>(v) / static_cast<double>(std::max<std::uint64_t>(rhs, 1));
  }
};

/// Rounds and ledger entries an operation charged to a cache entry's oracle.
/// A full rebuild swaps in a fresh oracle (and ledger) mid-operation; what
/// the new ledger holds is then entirely this operation's.
class LedgerDelta {
 public:
  explicit LedgerDelta(CachedSolverState& state)
      : rebuilds_(state.full_rebuilds()),
        rounds_(ledger_rounds(state.oracle().ledger())),
        entries_(state.oracle().ledger().entries().size()) {}

  void add_to(CachedSolverState& state, PrefixCounts& c) const {
    const RoundLedger& now = state.oracle().ledger();
    const bool fresh = state.full_rebuilds() != rebuilds_;
    c.rounds += ledger_rounds(now) - (fresh ? 0 : rounds_);
    c.ledger_entries += now.entries().size() - (fresh ? 0 : entries_);
  }

 private:
  std::uint64_t rebuilds_;
  std::uint64_t rounds_;
  std::size_t entries_;
};

// ---------------------------------------------------------------------------
// Weight updates for the cache's classification ladder.
// ---------------------------------------------------------------------------

const char* kClassNames[] = {"rescale", "reuse", "partial", "full"};
enum UpdateKind { kRescale = 0, kReuse = 1, kPartial = 2, kFull = 3 };

WeightUpdateClass expected_class(UpdateKind k) {
  switch (k) {
    case kRescale: return WeightUpdateClass::kRescale;
    case kReuse: return WeightUpdateClass::kReusePreconditioner;
    case kPartial: return WeightUpdateClass::kPartialRebuild;
    case kFull: return WeightUpdateClass::kFullRebuild;
  }
  return WeightUpdateClass::kNoChange;
}

// One cycle of the update mix: each class twice, first moving some weights
// away from the generated ones, then moving the same edges back, so every
// cycle starts from the generated weights and from the chain a full rebuild
// makes of them. A chain rebuilt on perturbed weights can need twice the PA
// calls per iteration, depending on which edges moved, so only one operation
// per cycle solves on one, and the full-rebuild jolt moves the same edges in
// every cycle and run (check_seeded_stack also rebuilds on seed-drawn edges).
// Reuse moves stay within 1.1×, so they stay on the reuse rung whichever
// edges the current tree holds, and the cumulative drift stays ≤ 1.21.
// The mix is an assumption, not measured traffic: equal shares follow the
// repo's scripted update stream (bench_cache_reuse, one step per class).
// With full rebuilds a quarter of the operations, op_s_p90 lands among them.
struct UpdateStep {
  UpdateKind kind;
  bool back;
};
constexpr UpdateStep kUpdateCycle[] = {
    {kReuse, false},   {kRescale, false}, {kReuse, true}, {kPartial, false},
    {kRescale, true},  {kPartial, true},  {kFull, false}, {kFull, true}};
constexpr std::size_t kCycleLength = std::size(kUpdateCycle);

// ---------------------------------------------------------------------------
// Per-layer probes: timed calls into each layer's public functions.
// ---------------------------------------------------------------------------

SolverCacheOptions cache_options() {
  SolverCacheOptions options;
  options.oracle = CacheOracleKind::kShortcutCongest;
  options.seed = kStackSeed;
  options.solver.tolerance = kEps;
  return options;
}

/// Median seconds per call of f, over batches of calls lasting ≥ 2 ms each.
template <class F>
double per_call(F&& f) {
  int calls = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) f();
    if (seconds_since(t0) >= 2e-3) break;
    calls *= 2;
  }
  std::vector<double> t;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) f();
    t.push_back(seconds_since(t0) / calls);
  }
  return median(t);
}

/// laplacian.* and pa_oracle.{measure_s,instances}: level-0 construction
/// steps, then a fresh CONGEST stack built and measured.
void probe_construction(const Graph& g, SpanLog& log,
                        Report& out) {
  const MinorGraph minor = MinorGraph::identity(g);
  const LaplacianSolverOptions defaults;
  const double budget =
      std::max(1.0, defaults.offtree_fraction * static_cast<double>(g.num_nodes()));
  std::vector<double> lsst, sparsify, eliminate;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(derive_scenario_seed(kStackSeed, rep));
    lsst.push_back(log.timed("low_stretch_spanning_tree", -1, [&] {
      (void)low_stretch_spanning_tree(g, rng);
    }));
    UltraSparsifier sp;
    sparsify.push_back(log.timed("build_ultra_sparsifier", -1, [&] {
      sp = build_ultra_sparsifier(minor, budget, rng);
    }));
    eliminate.push_back(log.timed("eliminate_degree_le2", -1, [&] {
      (void)eliminate_degree_le2(sp.sparsifier);
    }));
  }
  out.add("laplacian.lsst_s", median(lsst), "s");
  out.add("laplacian.sparsify_s", median(sparsify), "s");
  out.add("laplacian.eliminate_s", median(eliminate), "s");

  std::vector<double> build, measure;
  std::size_t levels = 0, instances = 0;
  double state_mb = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(kStackSeed);
    std::unique_ptr<ShortcutPaOracle> oracle;
    std::unique_ptr<DistributedLaplacianSolver> solver;
    log.timed("ShortcutPaOracle", -1, [&] {
      oracle = std::make_unique<ShortcutPaOracle>(
          g, rng, SchedulingPolicy::kRandomPriority, PaModel::kCongest);
    });
    LaplacianSolverOptions options;
    options.tolerance = kEps;
    build.push_back(log.timed("DistributedLaplacianSolver", -1, [&] {
      solver = std::make_unique<DistributedLaplacianSolver>(*oracle, rng, options);
    }));
    measure.push_back(
        log.timed("warm_instances", -1, [&] { solver->warm_instances(); }));
    levels = solver->num_levels();
    instances = oracle->num_instances();
    state_mb = static_cast<double>(solver->approx_state_bytes()) / (1024.0 * 1024.0);
  }
  out.add("laplacian.build_s", median(build), "s");
  out.add("laplacian.levels", static_cast<double>(levels), "count");
  out.add("laplacian.state_mb", state_mb, "MB");
  out.add("pa_oracle.measure_s", median(measure), "s");
  out.add("pa_oracle.instances", static_cast<double>(instances), "count");
}

/// linalg.*: the CSR operator, the plain vector kernels, and plain CG as the
/// single-thread baseline the preconditioner chain should beat.
void probe_linalg(const Graph& g, const Vec& b, SpanLog& log, Report& out) {
  const std::size_t n = g.num_nodes();
  LaplacianCsr csr(g);
  Vec x = random_rhs(n, 7), y(n, 0.0), z = random_rhs(n, 8);
  double sink = 0.0, apply = 0.0, dot_s = 0.0, axpy_s = 0.0;
  log.timed("LaplacianCsr::apply", -1,
            [&] { apply = per_call([&] { csr.apply(x, y); }); });
  log.timed("dot", -1, [&] { dot_s = per_call([&] { sink += dot(x, z); }); });
  log.timed("axpy", -1, [&] { axpy_s = per_call([&] { axpy(1e-9, x, z); }); });
  // Bytes one apply must move at least once: row_ptr + (col, weight) per
  // stored entry + degree + x gathered per entry + x[v] + y[v]. Computed
  // from the layout, not measured; at n ≈ 2–4·10³ everything is
  // cache-resident, so no bandwidth ratio is derived from it.
  const double nnz = static_cast<double>(csr.num_entries());
  const double nodes = static_cast<double>(n);
  const double bytes = (nodes + 1) * 4 + nnz * (sizeof(NodeId) + 8) +
                       nodes * 8 + nnz * 8 + nodes * 8 + nodes * 8;
  SolveWorkspace ws;
  SolveOptions opts;
  opts.tolerance = kEps;
  std::size_t iters = 0;
  std::vector<double> cg_s;
  for (int rep = 0; rep < 3; ++rep) {
    cg_s.push_back(log.timed("solve_laplacian_cg", -1, [&] {
      iters = solve_laplacian_cg(csr, b, opts, ws).iterations;
    }));
  }
  if (sink == 12345.678) std::printf("%g\n", sink);  // keep dot live
  out.add("linalg.csr_apply_us", apply * 1e6, "us");
  out.add("linalg.dot_us", dot_s * 1e6, "us");
  out.add("linalg.axpy_us", axpy_s * 1e6, "us");
  out.add("linalg.apply_bytes_computed", bytes, "bytes");
  out.add("linalg.apply_flops_per_byte_computed", 3.0 * nnz / bytes, "flop/B");
  out.add("linalg.cg_ref_s", median(cg_s), "s");
  out.add("linalg.cg_ref_iters", static_cast<double>(iters), "iterations");
}

/// session.*: a pooled batch against the same batch run serially, whose x
/// must match bit for bit, and the batch-of-1 tax.
void probe_session(DistributedLaplacianSolver& solver, const std::vector<Vec>& bs,
                   ThreadPool& pool, SpanLog& log, Report& out) {
  SolveSession session(solver);
  std::vector<LaplacianSolveReport> pooled, serial;
  log.timed("solve_batch", -1, [&] { pooled = session.solve_batch(bs, &pool); });
  const double pooled_s =
      log.timed("solve_batch", -1, [&] { pooled = session.solve_batch(bs, &pool); });
  const double serial_s =
      log.timed("solve_batch", -1, [&] { serial = session.solve_batch(bs, nullptr); });
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (pooled[i].x != serial[i].x) {
      out.fail("pooled batch x differs from serial batch x (rhs " +
               std::to_string(i) + ")");
    }
  }
  std::vector<double> one, single;
  for (int rep = 0; rep < 3; ++rep) {
    one.push_back(log.timed("solve_batch", -1, [&] {
      (void)session.solve_batch({bs.front()}, nullptr);
    }));
    single.push_back(log.timed("solve", -1, [&] { (void)solver.solve(bs.front()); }));
  }
  out.add("session.batch_s", pooled_s, "s");
  out.add("session.parallel_speedup", serial_s / pooled_s, "ratio");
  out.add("session.batch1_tax", median(one) / median(single), "ratio");
}

/// The per-layer metrics read off the deterministic prefix; sim.* from the
/// oracle ledger as the prefix left it.
struct PrefixProbe {
  double mb = 0.0;
  double total_hybrid_us = 0.0;

  void take(const RoundLedger& ledger) {
    mb = ledger_mb(ledger);
    std::uint64_t sink = 0;
    total_hybrid_us = per_call([&] { sink += ledger.total_hybrid(); }) * 1e6;
    if (sink == 1) std::printf(" ");  // keep the scans live
  }
  void report(const PrefixCounts& prefix, Report& out) const {
    out.add("pa_oracle.calls_per_rhs", prefix.per_rhs(prefix.pa_calls), "calls");
    out.add("laplacian.iters_over_cg", median(prefix.iters_over_cg), "ratio");
    out.add("sim.ledger_entries_per_rhs", prefix.per_rhs(prefix.ledger_entries),
            "entries");
    out.add("sim.ledger_mb", mb, "MB");
    out.add("sim.total_hybrid_us", total_hybrid_us, "us");
  }
};

/// obs.*: the same operation with and without the program's own Tracer
/// installed; the Tracer is used only to count spans per SpanKind. Its
/// ledger clock rescans the ledger on every span edge, so one traced
/// repetition is all a run can afford.
void probe_tracing(const std::function<std::size_t()>& op, SpanLog& log,
                   Report& out) {
  std::vector<double> plain;
  for (int rep = 0; rep < 2; ++rep) {
    plain.push_back(log.timed("op-untraced", -1, [&] { (void)op(); }));
  }
  Tracer tracer;
  std::size_t rhs = 0;
  const double traced = log.timed("op-traced", -1, [&] {
    TraceScope scope(&tracer);
    rhs = op();
  });
  std::size_t pa_spans = 0, iteration_spans = 0;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.kind == SpanKind::kPaCall) ++pa_spans;
    if (s.kind == SpanKind::kIteration) ++iteration_spans;
  }
  const double per = static_cast<double>(std::max<std::size_t>(rhs, 1));
  out.add("obs.trace_overhead", traced / median(plain), "ratio");
  out.add("obs.spans.pa_call_per_rhs", static_cast<double>(pa_spans) / per, "spans");
  out.add("obs.spans.iteration_per_rhs", static_cast<double>(iteration_spans) / per,
          "spans");
}

/// Draws the seeded weight updates of kUpdateCycle against the benchmark's
/// own logical weights, applies each through update_weights, times it, and
/// checks the rung the cache's ladder chose. Full-rebuild moves use fixed
/// edges unless `pin_full_edges` is false.
class Updater {
 public:
  Updater(const Graph& base, std::uint64_t seed, bool pin_full_edges = true)
      : base_(base),
        truth_(base),
        mult_(base.num_edges(), 1.0),
        rng_(seed),
        pin_full_edges_(pin_full_edges) {}

  const Graph& truth() const { return truth_; }

  /// Restarts the update draws; call only when every move has been undone.
  void restart(std::uint64_t seed) { rng_ = Rng(seed); }

  void apply(const UpdateStep& step, CachedSolverState& state, SpanLog& log,
             long op, Report& out) {
    const std::vector<WeightDelta> deltas = draw(step);
    WeightUpdateReport r;
    const double s =
        log.timed("update_weights", op, [&] { r = state.update_weights(deltas); });
    if (r.classification != expected_class(step.kind)) {
      out.fail(std::string("update classified ") + to_string(r.classification) +
               ", expected " + kClassNames[step.kind]);
    }
    seconds_[step.kind].push_back(s);
  }

  void report(const SolverCache& cache, Report& out) const {
    for (int k = 0; k < 4; ++k) {
      out.add(std::string("cache.update_s.") + kClassNames[k],
              median(seconds_.at(k)), "s");
    }
    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    out.add("cache.hit_ratio", static_cast<double>(cache.hits()) / lookups,
            "ratio");
    out.add("cache.mb",
            static_cast<double>(cache.total_bytes()) / (1024.0 * 1024.0), "MB");
  }

 private:
  /// Logical weight = generated weight × per-edge multiplier × global scale.
  std::vector<WeightDelta> draw(const UpdateStep& step) {
    const auto m = static_cast<EdgeId>(base_.num_edges());
    std::vector<WeightDelta> deltas;
    if (step.kind == kRescale) {
      scale_ = step.back ? 1.0 : 1.3 + 0.5 * rng_.next_double();
      for (EdgeId e = 0; e < m; ++e) deltas.push_back({e, set_weight(e)});
      return deltas;
    }
    std::vector<EdgeId>& edges = moved_[step.kind];
    if (step.back) {
      for (EdgeId e : edges) mult_[e] = 1.0;
    } else {
      const double lo = step.kind == kReuse ? 1.05 : step.kind == kPartial ? 2.0 : 6.0;
      const double hi = step.kind == kReuse ? 1.1 : step.kind == kPartial ? 3.5 : 6.0;
      Rng jolt(kGraphSeed);  // the same full-rebuild edges every time
      Rng& rng = step.kind == kFull && pin_full_edges_ ? jolt : rng_;
      edges.clear();
      while (edges.size() < (step.kind == kFull ? 4u : 16u)) {
        const auto e = static_cast<EdgeId>(rng.next_below(m));
        if (mult_[e] != 1.0) continue;  // one outstanding move per edge
        const double r = lo + (hi - lo) * rng.next_double();
        mult_[e] = rng.next_below(2) == 0 ? r : 1.0 / r;
        edges.push_back(e);
      }
    }
    for (EdgeId e : edges) deltas.push_back({e, set_weight(e)});
    return deltas;
  }

  double set_weight(EdgeId e) {
    truth_.set_weight(e, base_.edge(e).weight * mult_[e] * scale_);
    return truth_.edge(e).weight;
  }

  Graph base_;
  Graph truth_;
  std::vector<double> mult_;
  Rng rng_;
  bool pin_full_edges_;
  double scale_ = 1.0;
  std::map<int, std::vector<EdgeId>> moved_;  // edges of each class's last move
  std::map<int, std::vector<double>> seconds_;
};

/// cache.*: one update cycle on an entry, then one lookup.
void probe_cache(SolverCache& cache, CachedSolverState& state, Updater& updater,
                 SpanLog& log, Report& out) {
  for (const UpdateStep& step : kUpdateCycle) {
    updater.apply(step, state, log, -1, out);
  }
  log.timed("acquire", -1, [&] { (void)cache.acquire(updater.truth()); });
  updater.report(cache, out);
}

// ---------------------------------------------------------------------------
// Run skeleton shared by the workloads.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::string build_id;
};

struct LoopResult {
  std::vector<double> op_s;
  std::size_t rhs = 0;
  double busy_s = 0.0;  // summed op latency: the wall the client waited
};

/// Moves the calling thread to the next CPU of the process's affinity set
/// before each operation, and restores the set when destroyed. On a shared
/// host each CPU runs fast or slow in phases of seconds, independently of the
/// others; a single-threaded run left on one CPU follows that CPU's phases,
/// while a rotating one samples every CPU it was given throughout the run.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next(std::size_t i) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

/// Closed loop: op(i) runs operation i and returns its (latency, rhs count).
/// Runs at least `min_ops` operations and until `seconds` of wall time have
/// passed, checks included. With `rotate_cpus` (single-threaded workloads; op
/// must start no thread, which would inherit a one-CPU affinity) each
/// operation runs on the next CPU in turn.
LoopResult closed_loop(double seconds, std::size_t min_ops, bool rotate_cpus,
                       const std::function<std::pair<double, std::size_t>(long)>& op) {
  LoopResult r;
  CpuRotation rotation(rotate_cpus);
  const Clock::time_point start = Clock::now();
  for (long i = 0;
       static_cast<std::size_t>(i) < min_ops || seconds_since(start) < seconds;
       ++i) {
    rotation.next(static_cast<std::size_t>(i));
    const auto [latency, rhs] = op(i);
    r.op_s.push_back(latency);
    r.busy_s += latency;
    r.rhs += rhs;
  }
  return r;
}

/// Traced runs execute only the deterministic prefix: their figures come
/// from it and from the probes, and the probes already take most of the time
/// a run may use.
double loop_seconds(const Options& opt) { return opt.trace ? 0.0 : opt.seconds; }

/// The four deterministic counts must repeat exactly for a given seed and
/// build. The first run records them; later runs compare.
void check_determinism(const Options& opt, const PrefixCounts& c, Report& out) {
  char line[256];
  std::snprintf(line, sizeof line, "%s %.17g %.17g %.17g %.17g",
                opt.build_id.c_str(), c.per_rhs(c.rounds),
                median(c.outer_iterations), c.per_rhs(c.pa_calls),
                c.per_rhs(c.ledger_entries));
  out.note(std::string("deterministic counts (rounds/rhs, outer p50, "
                       "calls/rhs, entries/rhs): ") + line);
  if (opt.out_dir.empty() || opt.build_id.empty()) return;
  const std::string path = opt.out_dir + "/determinism-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".txt";
  std::string previous;
  if (std::ifstream in(path); in && std::getline(in, previous) &&
                              previous.rfind(opt.build_id + " ", 0) == 0) {
    if (previous != line) {
      out.fail("deterministic counts changed between runs of seed " +
               std::to_string(opt.seed) + ": was [" + previous + "] now [" +
               line + "]");
    }
    return;
  }
  std::ofstream(path) << line << "\n";
}

void report_end_to_end(const LoopResult& loop, const std::vector<double>& setup_s,
                       const PrefixCounts& prefix, Report& out) {
  out.add("setup_s", median(setup_s), "s");
  out.add("op_s_p50", quantile(loop.op_s, 0.5), "s");
  out.add("op_s_p90", quantile(loop.op_s, 0.9), "s");
  out.add("rhs_per_s", static_cast<double>(loop.rhs) / loop.busy_s, "1/s");
  out.add("peak_rss_mb", prefix.peak_rss_mb, "MB");
  out.add("rounds_per_rhs", prefix.per_rhs(prefix.rounds), "rounds");
  out.add("outer_iterations_p50", median(prefix.outer_iterations), "iterations");
  char line[160];
  std::snprintf(line, sizeof line,
                "ops %zu (%zu above p90), rhs %zu, setups %zu, prefix rhs %llu",
                loop.op_s.size(), loop.op_s.size() / 10, loop.rhs, setup_s.size(),
                static_cast<unsigned long long>(prefix.rhs));
  out.note(line);
}

void report_failed_fraction(const AnswerChecker& checker, const Report& out) {
  std::printf(
      "failed_fraction %.6g fraction (%zu of %zu problems); worst residual %.3e "
      "(limit %.1e), worst L-norm error %.3e (limit %.1e)\n",
      static_cast<double>(out.failed) /
          static_cast<double>(std::max<std::size_t>(out.attempted, 1)),
      out.failed, out.attempted, checker.worst_residual(), 2 * kEps,
      checker.worst_error(), kLNormBound);
  std::printf("%s\n", checker.repeat_summary().c_str());
}

double iters_over_cg(const LaplacianSolveReport& r, AnswerChecker& checker,
                     const Vec& b) {
  return static_cast<double>(r.outer_iterations) /
         static_cast<double>(std::max<std::size_t>(checker.cg_iterations_at_eps(b), 1));
}

/// Seed of the stack check_seeded_stack solves on, drawn from --seed.
std::uint64_t seeded_stack_seed(const Options& opt) {
  return stream_seed(opt.seed, 12);
}

/// The timed loop serves stacks seeded with kStackSeed. Outside the timed
/// region each workload solves RHS again on a stack seeded from --seed
/// (pooled; entry i is bit-identical to a single solve) and checks them
/// here. Each answer counts in `attempted` and `failed` like any other; one
/// line compares the stack with `reference`.
PrefixCounts check_seeded_stack(const char* what, const std::vector<Vec>& bs,
                                const std::vector<LaplacianSolveReport>& rs,
                                const PrefixCounts& reference,
                                AnswerChecker& checker, Report& out) {
  PrefixCounts seeded;
  seeded.add_reports(rs);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (!checker.check(bs[i], rs[i], -1)) ++failed;
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu of %zu RHS failed; outer p50 %.0f, PA calls/rhs %.1f "
                "(reference: outer p50 %.0f, PA calls/rhs %.1f)",
                what, failed, bs.size(), median(seeded.outer_iterations),
                seeded.per_rhs(seeded.pa_calls), median(reference.outer_iterations),
                reference.per_rhs(reference.pa_calls));
  out.note(line);
  return seeded;
}

/// The warm workloads' seeded stack: a second cache whose entry for g is
/// seeded from --seed.
CachedSolverState& seeded_entry(const Options& opt, const Graph& g,
                                std::unique_ptr<SolverCache>& cache) {
  SolverCacheOptions options = cache_options();
  options.seed = seeded_stack_seed(opt);
  cache = std::make_unique<SolverCache>(options);
  return cache->acquire(g).state;
}

// ---------------------------------------------------------------------------
// cold-grid: a fresh CONGEST stack per operation.
// ---------------------------------------------------------------------------

void run_cold_grid(const Options& opt, SpanLog& log, Report& out) {
  constexpr std::size_t kPrefixOps = 16;
  Graph g;
  log.timed("make_grid", -1, [&] { g = make_grid(kGridSide, kGridSide); });
  AnswerChecker checker(out);
  checker.set_graph(g);
  LaplacianSolverOptions options;
  options.tolerance = kEps;
  const auto build_stack = [&](Rng& rng, long op,
                               std::unique_ptr<ShortcutPaOracle>& oracle,
                               std::unique_ptr<DistributedLaplacianSolver>& solver) {
    return log.timed("setup", op, [&] {
      log.timed("ShortcutPaOracle", op, [&] {
        oracle = std::make_unique<ShortcutPaOracle>(
            g, rng, SchedulingPolicy::kRandomPriority, PaModel::kCongest);
      });
      log.timed("DistributedLaplacianSolver", op, [&] {
        solver = std::make_unique<DistributedLaplacianSolver>(*oracle, rng, options);
      });
      log.timed("warm_instances", op, [&] { solver->warm_instances(); });
    });
  };

  std::vector<double> setup_s;
  PrefixCounts prefix;
  PrefixProbe prefix_probe;
  const LoopResult loop =
      closed_loop(loop_seconds(opt), kPrefixOps, /*rotate_cpus=*/true, [&](long op) {
    const std::size_t slot = static_cast<std::size_t>(op) % kPrefixOps;
    const Vec b = random_rhs(g.num_nodes(), stream_seed(opt.seed, 2, slot));
    Rng rng(kStackSeed);
    std::unique_ptr<ShortcutPaOracle> oracle;
    std::unique_ptr<DistributedLaplacianSolver> solver;
    LaplacianSolveReport r;
    double setup = 0.0;
    const double latency = log.timed("op", op, [&] {
      setup = build_stack(rng, op, oracle, solver);
      log.timed("solve", op, [&] { r = solver->solve(b); });
    });
    setup_s.push_back(setup);
    checker.check_slot(slot, b, r, op);
    const auto done = static_cast<std::size_t>(op) + 1;
    if (done <= kPrefixOps) {
      prefix.rounds += ledger_rounds(oracle->ledger());
      prefix.ledger_entries += oracle->ledger().entries().size();
      prefix.add_reports({r});
      if (opt.trace) {
        prefix.iters_over_cg.push_back(iters_over_cg(r, checker, b));
        if (done == kPrefixOps) prefix_probe.take(oracle->ledger());
      }
    }
    if (done == kPrefixOps) prefix.peak_rss_mb = peak_rss_mb();
    return std::make_pair(latency, std::size_t{1});
  });
  ThreadPool pool(ThreadPool::hardware_threads());
  {
    std::vector<Vec> bs;
    for (long op = 0; op < static_cast<long>(kPrefixOps); ++op) {
      bs.push_back(random_rhs(g.num_nodes(), stream_seed(opt.seed, 2, op)));
    }
    Rng rng(seeded_stack_seed(opt));
    std::unique_ptr<ShortcutPaOracle> oracle;
    std::unique_ptr<DistributedLaplacianSolver> solver;
    build_stack(rng, -1, oracle, solver);
    check_seeded_stack("prefix RHS on a stack seeded from --seed", bs,
                       solver->solve_batch(bs, &pool), prefix, checker, out);
  }
  check_determinism(opt, prefix, out);
  report_failed_fraction(checker, out);
  if (!opt.trace) {
    report_end_to_end(loop, setup_s, prefix, out);
    return;
  }

  prefix_probe.report(prefix, out);
  probe_construction(g, log, out);
  probe_linalg(g, random_rhs(g.num_nodes(), stream_seed(opt.seed, 2, 0)), log, out);
  {
    Rng rng(kStackSeed);
    std::unique_ptr<ShortcutPaOracle> oracle;
    std::unique_ptr<DistributedLaplacianSolver> solver;
    build_stack(rng, -1, oracle, solver);
    probe_session(*solver,
                  random_batch(g.num_nodes(), kProbeBatch, stream_seed(opt.seed, 3)),
                  pool, log, out);
  }
  {
    SolverCache cache(cache_options());
    CachedSolverState* state = nullptr;
    log.timed("acquire", -1, [&] { state = &cache.acquire(g).state; });
    Updater updater(g, stream_seed(opt.seed, 4));
    probe_cache(cache, *state, updater, log, out);
  }
  const Vec b = random_rhs(g.num_nodes(), stream_seed(opt.seed, 5));
  probe_tracing(
      [&] {
        Rng rng(kStackSeed);
        std::unique_ptr<ShortcutPaOracle> oracle;
        std::unique_ptr<DistributedLaplacianSolver> solver;
        build_stack(rng, -1, oracle, solver);
        (void)solver->solve(b);
        return std::size_t{1};
      },
      log, out);
}

/// Set-up of the warm workloads: five fresh caches each build an entry for g.
/// The last cache serves; its entry is returned.
CachedSolverState* warm_setup(const Graph& g, SpanLog& log,
                              std::unique_ptr<SolverCache>& cache,
                              std::vector<double>& setup_s) {
  CachedSolverState* state = nullptr;
  for (int rep = 0; rep < 5; ++rep) {
    cache.reset();
    setup_s.push_back(log.timed("setup", -1, [&] {
      cache = std::make_unique<SolverCache>(cache_options());
      log.timed("acquire", -1, [&] { state = &cache->acquire(g).state; });
    }));
  }
  return state;
}

// ---------------------------------------------------------------------------
// warm-expander: one warm cache entry, one lookup + solve per operation.
// ---------------------------------------------------------------------------

void run_warm_expander(const Options& opt, SpanLog& log, Report& out) {
  // Per-solve ledger growth is what this workload exposes. The log is
  // drained every epoch, outside the timed region, so memory reflects one
  // epoch of growth however many operations a run completes.
  constexpr std::size_t kEpochOps = 16;
  Graph g;
  log.timed("make_random_regular", -1, [&] {
    Rng gen(kGraphSeed);
    g = make_random_regular(kExpanderNodes, 4, gen);
  });
  AnswerChecker checker(out);
  checker.set_graph(g);

  std::vector<double> setup_s;
  std::unique_ptr<SolverCache> cache;
  CachedSolverState* state = warm_setup(g, log, cache, setup_s);

  PrefixCounts prefix;
  PrefixProbe prefix_probe;
  const LoopResult loop =
      closed_loop(loop_seconds(opt), kEpochOps, /*rotate_cpus=*/true, [&](long op) {
    const std::size_t slot = static_cast<std::size_t>(op) % kEpochOps;
    const Vec b = random_rhs(g.num_nodes(), stream_seed(opt.seed, 7, slot));
    const LedgerDelta delta(*state);
    LaplacianSolveReport r;
    const double latency = log.timed("op", op, [&] {
      log.timed("acquire", op, [&] { state = &cache->acquire(g).state; });
      log.timed("solve", op, [&] { r = state->solve(b); });
    });
    checker.check_slot(slot, b, r, op);
    RoundLedger& ledger = state->oracle().ledger();
    const auto done = static_cast<std::size_t>(op) + 1;
    if (done <= kEpochOps) {
      delta.add_to(*state, prefix);
      prefix.add_reports({r});
      if (opt.trace) {
        prefix.iters_over_cg.push_back(iters_over_cg(r, checker, b));
        if (done == kEpochOps) prefix_probe.take(ledger);
      }
    }
    if (done == kEpochOps) prefix.peak_rss_mb = peak_rss_mb();
    if (done % kEpochOps == 0) ledger.clear();
    return std::make_pair(latency, std::size_t{1});
  });
  {
    std::vector<Vec> bs;
    for (long op = 0; op < static_cast<long>(kEpochOps); ++op) {
      bs.push_back(random_rhs(g.num_nodes(), stream_seed(opt.seed, 7, op)));
    }
    std::unique_ptr<SolverCache> seeded_cache;
    CachedSolverState& seeded = seeded_entry(opt, g, seeded_cache);
    ThreadPool pool(ThreadPool::hardware_threads());
    check_seeded_stack("prefix RHS on a stack seeded from --seed", bs,
                       seeded.solve_batch(bs, &pool), prefix, checker, out);
  }
  check_determinism(opt, prefix, out);
  report_failed_fraction(checker, out);
  if (!opt.trace) {
    report_end_to_end(loop, setup_s, prefix, out);
    return;
  }

  prefix_probe.report(prefix, out);
  probe_construction(g, log, out);
  probe_linalg(g, random_rhs(g.num_nodes(), stream_seed(opt.seed, 7, 0)), log, out);
  {
    ThreadPool pool(ThreadPool::hardware_threads());
    probe_session(state->solver(),
                  random_batch(g.num_nodes(), kProbeBatch, stream_seed(opt.seed, 3)),
                  pool, log, out);
  }
  const Vec b = random_rhs(g.num_nodes(), stream_seed(opt.seed, 5));
  probe_tracing(
      [&] {
        state->oracle().ledger().clear();  // same ledger length every time
        (void)state->solve(b);
        return std::size_t{1};
      },
      log, out);
  Updater updater(g, stream_seed(opt.seed, 4));
  probe_cache(*cache, *state, updater, log, out);
}

// ---------------------------------------------------------------------------
// batch-update-wgrid: lookup, one weight update, then a pooled batch.
// ---------------------------------------------------------------------------

void run_batch_update(const Options& opt, SpanLog& log, Report& out) {
  Graph base;
  log.timed("make_weighted_grid", -1, [&] {
    Rng gen(kGraphSeed);
    base = make_weighted_grid(kWgridSide, kWgridSide, gen);
  });
  const std::size_t n = base.num_nodes();
  ThreadPool pool(ThreadPool::hardware_threads());

  std::vector<double> setup_s;
  std::unique_ptr<SolverCache> cache;
  CachedSolverState* state = warm_setup(base, log, cache, setup_s);

  Updater updater(base, stream_seed(opt.seed, 4));
  AnswerChecker checker(out);
  PrefixCounts prefix;
  PrefixProbe prefix_probe;
  std::vector<double> batch_s;
  // The deterministic prefix is three update cycles; the ledger is drained
  // after every cycle.
  constexpr std::size_t kPrefixOps = 3 * kCycleLength;
  const LoopResult loop =
      closed_loop(loop_seconds(opt), kPrefixOps, /*rotate_cpus=*/false, [&](long op) {
    // Operation op repeats prefix operation op mod kPrefixOps: the same RHS
    // and, with the update draws restarted at each cycle, the same updates.
    const std::size_t slot = static_cast<std::size_t>(op) % kPrefixOps;
    if (slot % kCycleLength == 0) {
      updater.restart(stream_seed(opt.seed, 4, slot / kCycleLength));
    }
    const std::vector<Vec> bs =
        random_batch(n, kBatchSize, stream_seed(opt.seed, 9, slot));
    const LedgerDelta delta(*state);
    std::vector<LaplacianSolveReport> rs;
    const double latency = log.timed("op", op, [&] {
      log.timed("acquire", op, [&] { state = &cache->acquire(updater.truth()).state; });
      updater.apply(kUpdateCycle[op % kCycleLength], *state, log, op, out);
      batch_s.push_back(log.timed("solve_batch", op, [&] {
        rs = state->solve_batch(bs, &pool);
      }));
    });
    checker.set_graph(updater.truth());
    for (std::size_t i = 0; i < bs.size(); ++i) {
      checker.check_slot(slot * kBatchSize + i, bs[i], rs[i], op);
    }
    RoundLedger& ledger = state->oracle().ledger();
    const auto done = static_cast<std::size_t>(op) + 1;
    if (done <= kPrefixOps) {
      delta.add_to(*state, prefix);
      prefix.add_reports(rs);
      if (opt.trace) {
        for (std::size_t i = 0; i < bs.size(); ++i) {
          prefix.iters_over_cg.push_back(iters_over_cg(rs[i], checker, bs[i]));
        }
        if (done == kCycleLength) prefix_probe.take(ledger);
      }
    }
    if (done == kPrefixOps) prefix.peak_rss_mb = peak_rss_mb();
    if (opt.trace && done == kPrefixOps) {
      // Sampled operation: the same batch again, serially, must match the
      // pooled answers bit for bit.
      const std::vector<LaplacianSolveReport> serial = state->solve_batch(bs, nullptr);
      for (std::size_t i = 0; i < bs.size(); ++i) {
        if (serial[i].x != rs[i].x) {
          out.fail("op " + std::to_string(op) + ": pooled x differs from serial x");
        }
      }
    }
    if (done % kCycleLength == 0) ledger.clear();
    return std::make_pair(latency, bs.size());
  });
  {
    // The first operation's batch on the seeded stack, then again after a
    // full rebuild on edges drawn from --seed: the quality of rebuilt chains
    // shows in the second line's PA calls against the first's.
    const std::vector<Vec> bs = random_batch(n, kBatchSize, stream_seed(opt.seed, 9, 0));
    std::unique_ptr<SolverCache> seeded_cache;
    CachedSolverState& seeded = seeded_entry(opt, base, seeded_cache);
    checker.set_graph(base);
    const PrefixCounts fresh =
        check_seeded_stack("first batch on a stack seeded from --seed", bs,
                           seeded.solve_batch(bs, &pool), prefix, checker, out);
    Updater jolt(base, stream_seed(opt.seed, 13), /*pin_full_edges=*/false);
    jolt.apply({kFull, false}, seeded, log, -1, out);
    checker.set_graph(jolt.truth());
    check_seeded_stack("same batch after a full rebuild on seed-drawn edges", bs,
                       seeded.solve_batch(bs, &pool), fresh, checker, out);
  }
  check_determinism(opt, prefix, out);
  report_failed_fraction(checker, out);
  if (!opt.trace) {
    report_end_to_end(loop, setup_s, prefix, out);
    return;
  }

  prefix_probe.report(prefix, out);
  probe_construction(base, log, out);
  probe_linalg(base, random_rhs(n, stream_seed(opt.seed, 9, 0)), log, out);
  const std::vector<Vec> bs = random_batch(n, kBatchSize, stream_seed(opt.seed, 3));
  probe_session(state->solver(), bs, pool, log, out);
  const std::vector<Vec> traced_bs(bs.begin(), bs.begin() + kProbeBatch);
  probe_tracing(
      [&] {
        state->oracle().ledger().clear();
        (void)state->solve_batch(traced_bs, &pool);
        return traced_bs.size();
      },
      log, out);
  updater.report(*cache, out);
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<cold-grid|warm-expander|batch-update-wgrid> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--build-id <id>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && opt.seconds > 0.0 &&
                     opt.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--build-id") {
      opt.build_id = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be a number in (0, 600]");
  if (!have_trace) usage("--trace must be 0 or 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::map<std::string, void (*)(const Options&, SpanLog&, Report&)> workloads = {
      {"cold-grid", run_cold_grid},
      {"warm-expander", run_warm_expander},
      {"batch-update-wgrid", run_batch_update},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage("unknown workload '" + opt.workload + "'");

  SpanLog log(opt.trace);
  Report report;
  try {
    it->second(opt, log, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!log.write(path)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  report.print();
  return 0;
}
