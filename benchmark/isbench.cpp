// isbench: the repository's benchmark. It measures the paper's claim —
// importance sampling lets asynchronous SGD reach a target loss sooner in
// wall-clock time, setup included — on four execution paths, and splits the
// IS-ASGD epoch into its layers in a separate traced replay.
//
//   isbench --workload news20-contended --seed 1 --seconds 25 --trace 0
//   isbench --workload url-sparse --seed 1 --seconds 25 --trace 1 \
//           --trace-dir traces --out url.json
//   isbench --smoke --schema BENCHMARK.json
//
// Every layer is measured from outside, by timing calls into public
// functions. The seed drives both data generation and the solvers. The last
// line of standard output is one JSON object,
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). --out writes the full record: host header, workload, and
// every metric with its median, quartiles and sample count. The exit code is
// nonzero when any check fails. benchmark/README.md documents the workloads,
// the metrics and their bounds.
#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "core/execution.hpp"
#include "core/numa.hpp"
#include "core/trainer.hpp"
#include "data/packed_source.hpp"
#include "data/paper_datasets.hpp"
#include "data/synthetic.hpp"
#include "distributed/cluster.hpp"
#include "distributed/fenced.hpp"
#include "distributed/param_server.hpp"
#include "distributed/ps_wire.hpp"
#include "io/shardpack.hpp"
#include "net/transport.hpp"
#include "objectives/logistic.hpp"
#include "partition/partition.hpp"
#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/model.hpp"
#include "solvers/schedule.hpp"
#include "sparse/dispatch.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace isasgd;
using Clock = std::chrono::steady_clock;

/// Worker count T (solver threads, PS worker processes, eval threads). With
/// nproc = 4 it leaves one core to the main thread and one to the prefetch
/// lane (packed-ooc) or the PS server process (ps-shm), so no workload runs
/// more threads or processes than the host has cores.
constexpr std::size_t kThreads = 2;
/// Epochs of each replay, and replays per mode (per-layer values are
/// medians over them).
constexpr std::size_t kReplayEpochs = 3;
constexpr std::size_t kReplayRepeats = 3;
/// A timed run fails when its final RMSE is more than 2% above the
/// reference's.
constexpr double kRmseSlack = 1.02;
/// Timed A/B pairs: at least this many (R), then as many more as --seconds
/// allows, so a slower build never gets fewer than R samples.
constexpr std::size_t kMinPairs = 10;
constexpr std::size_t kMaxPairs = 200;
/// L1 strength of every run (end_to_end's value: small against ~1e6 active
/// coordinates).
constexpr double kL1 = 1e-8;
/// Smoke runs shrink every dataset by this factor.
constexpr double kSmokeScale = 0.05;
constexpr std::size_t kSmokeEpochs = 4;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double nanos(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

/// Keeps timed work observable so the optimiser cannot drop it.
volatile double g_sink = 0;

// ---------------------------------------------------------------------------
// Statistics

/// Median and quartiles exactly as Python's statistics.quantiles(values,
/// n=4) computes them (its default "exclusive" method), so the numbers here
/// agree with compare.py and with any external spread check.
struct Quartiles {
  double q1 = kNaN, median = kNaN, q3 = kNaN;
  std::size_t n = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::erase_if(v, [](double x) { return !std::isfinite(x); });
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const auto ld = static_cast<std::int64_t>(v.size());
  const std::int64_t m = ld + 1;
  double cut[3];
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    cut[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  return q;
}

double median_of(std::vector<double> v) { return quartiles(std::move(v)).median; }

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json lists the same names, units and directions;
// `isbench --smoke --schema BENCHMARK.json` fails when the two drift.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"time_to_target_s", "s", "lower"},
    {"asgd_time_to_target_s", "s", "lower"},
    {"samples_per_s", "1/s", "higher"},
    {"asgd_samples_per_s", "1/s", "higher"},
    {"setup_s", "s", "lower"},
    {"run_wall_s", "s", "lower"},
    {"final_rmse", "rmse", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"partition.importance_s", "s", "lower"},
    {"partition.plan_s", "s", "lower"},
    {"partition.phi_imbalance", "ratio", "lower"},
    {"sampling.alias_build_s", "s", "lower"},
    {"sampling.draw_ns", "ns", "lower"},
    {"sparse.gather_ns", "ns", "lower"},
    {"sparse.update_ns", "ns", "lower"},
    {"sparse.gather_1t_ns", "ns", "lower"},
    {"sparse.update_1t_ns", "ns", "lower"},
    {"objectives.gradient_ns", "ns", "lower"},
    {"solvers.contention_x", "x", "lower"},
    {"solvers.scaling_eff", "ratio", "higher"},
    {"solvers.unattributed_frac", "ratio", "lower"},
    {"util.fence_us", "us", "lower"},
    {"util.fence_wait_frac", "ratio", "lower"},
    {"metrics.eval_s", "s", "lower"},
    {"data.open_s", "s", "lower"},
    {"data.materialize_s", "s", "lower"},
    {"data.shard_fault_us", "us", "lower"},
    {"data.cache_hit_ratio", "ratio", "higher"},
    {"data.prefetch_useful_ratio", "ratio", "higher"},
    {"data.prefetch_race_ratio", "ratio", "lower"},
    {"net.shm_rtt_us", "us", "lower"},
    {"distributed.setup_s", "s", "lower"},
    {"distributed.apply_ns", "ns", "lower"},
    {"distributed.fence_s", "s", "lower"},
    {"distributed.bytes_per_sample", "B", "lower"},
    {"distributed.messages_per_sample", "count", "lower"},
    {"distributed.wire_retries", "count", "lower"},
    {"trace.overhead_frac", "ratio", "lower"},
    {"is_speedup", "x", "higher"},
};

/// One reported metric: `value` is what the result line carries (the
/// median, except where a metric is defined otherwise), `q` the spread of
/// its samples.
struct Metric {
  double value = kNaN;
  Quartiles q;
};
using Metrics = std::map<std::string, Metric>;

void put(Metrics& m, const std::string& name, std::vector<double> samples) {
  const Quartiles q = quartiles(std::move(samples));
  m[name] = Metric{q.median, q};
}

void put(Metrics& m, const std::string& name, double value) {
  put(m, name, std::vector<double>{value});
}

// ---------------------------------------------------------------------------
// Workloads. Why each one exists is recorded in BENCHMARK.json and
// benchmark/README.md.

enum class Lane {
  kThreads,  ///< is_asgd vs asgd on the shared-memory thread pool
  kPacked,   ///< the same pair, each run on a fresh cold PackedSource
  kProcess,  ///< dist.ps.is_asgd vs dist.ps.asgd on a forked shm group
};

struct WorkloadDef {
  const char* name;
  data::PaperDataset dataset;
  double scale;
  std::size_t dim;  ///< 0 keeps the scaled analog's dimension
  std::size_t epochs;
  Lane lane;
};

// Every model fits a core's L2 (2 MiB on the reference host), so runs wait
// on the host's shared L3 and DRAM as little as the data allows: on a shared
// host those drift by a third between 20-s windows, against a tenth for
// core-bound work.
constexpr WorkloadDef kWorkloads[] = {
    {"news20-contended", data::PaperDataset::kNews20, 2.0, 0, 30,
     Lane::kThreads},
    {"url-sparse", data::PaperDataset::kUrl, 0.5, 150'000, 20, Lane::kThreads},
    {"packed-ooc", data::PaperDataset::kNews20, 2.0, 0, 10, Lane::kPacked},
    {"ps-shm", data::PaperDataset::kUrl, 0.25, 150'000, 10, Lane::kProcess},
};

/// Rows per shard of the packed lane's pack: 20 shards, of which the budget
/// of a tenth of the CSR bytes caches two.
constexpr std::size_t kPackShardRows = 1024;

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const char* is_solver(Lane lane) {
  return lane == Lane::kProcess ? "dist.ps.is_asgd" : "is_asgd";
}
const char* uniform_solver(Lane lane) {
  return lane == Lane::kProcess ? "dist.ps.asgd" : "asgd";
}

struct Config {
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string workdir;    ///< packs and shm rings (absolute)
  std::string trace_dir;  ///< Chrome trace JSON output
  std::string commit;
};

/// Operations attempted and failed: the timed runs plus the checks.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "isbench: FAIL %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------------------
// Process memory: VmHWM, reset per run through /proc/self/clear_refs.

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return kNaN;
}

/// Peak RSS of the largest reaped child process so far (the forked PS
/// server and workers). The kernel keeps it as a running maximum, so it
/// cannot be reset per run.
double children_peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_CHILDREN, &usage) != 0) return kNaN;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB → MiB
}

/// Bytes of a CSR matrix held in memory (the packed lane's budget is a
/// tenth of this).
std::size_t csr_bytes(const sparse::CsrMatrix& X) {
  return X.nnz() * (sizeof(sparse::index_t) + sizeof(sparse::value_t)) +
         (X.rows() + 1) * sizeof(std::size_t) + X.rows() * sizeof(double);
}

/// Cost of one steady_clock read, for subtracting from traced intervals.
double calibrate_timer_ns() {
  constexpr int kBatches = 9;
  constexpr int kReads = 20000;
  std::vector<double> per_read;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    Clock::time_point t = start;
    for (int i = 0; i < kReads; ++i) t = Clock::now();
    per_read.push_back(nanos(t - start) / kReads);
  }
  return median_of(per_read);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return !a.empty() && a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Workload setup: data, options, pack, serial reference.

struct Setup {
  Setup(const WorkloadDef& d, const Config& c, core::ExecutionContextPtr x)
      : def(d), config(c), ctx(std::move(x)) {}

  const WorkloadDef& def;
  const Config& config;
  core::ExecutionContextPtr ctx;
  objectives::LogisticLoss loss;
  objectives::Regularization reg = objectives::Regularization::l1(kL1);
  data::PaperDatasetConfig cfg;
  sparse::CsrMatrix data;
  solvers::SolverOptions opt;  ///< threads are set per run
  std::string pack_path;       ///< packed lane only
  std::size_t pack_budget = 0;  ///< a tenth of the CSR bytes

  double target_rmse = kNaN;     ///< reference RMSE at epoch ⌈E/2⌉
  double ref_final_rmse = kNaN;  ///< reference RMSE at epoch E
  /// Steady samples/s of the reference when it is asgd@1 in memory; NaN on
  /// the process lane, whose reference runs on simulated time.
  double ref_samples_per_s = kNaN;
  std::vector<double> ref_model;

  [[nodiscard]] core::TrainerBuilder builder() const {
    return core::TrainerBuilder()
        .objective(loss)
        .regularization(reg)
        .eval_threads(kThreads)
        .execution(ctx);
  }

  /// Fenced round-robin shm group of kThreads workers. The process form
  /// gets a fresh ring prefix inside the work directory per call: ring
  /// files are created O_EXCL, so prefixes are never reused.
  [[nodiscard]] distributed::ClusterSpec cluster(
      distributed::Backend backend) const {
    distributed::ClusterSpec spec;
    spec.nodes = kThreads;
    spec.backend = backend;
    spec.schedule = distributed::Schedule::kFencedRoundRobin;
    spec.transport = "shm";
    if (backend == distributed::Backend::kProcess) {
      static std::atomic<unsigned> counter{0};
      spec.bind_address = "shm://" + config.workdir + "/ps_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
    }
    return spec;
  }
};

/// Steady-state samples/s of a trace: epochs 2..E on the training clock.
double steady_samples_per_s(const solvers::Trace& trace, std::size_t rows) {
  const std::size_t e = trace.points.size() - 1;
  if (e < 2) return kNaN;
  const double span = trace.points[e].seconds - trace.points[1].seconds;
  return span > 0 ? static_cast<double>(rows * (e - 1)) / span : kNaN;
}

/// Generates the data from the seed, writes the pack for the packed lane,
/// and runs the deterministic serial reference that fixes the target.
void prepare(Setup& s, const core::Trainer& mem) {
  const Config& c = s.config;
  const std::size_t epochs = c.smoke ? kSmokeEpochs : s.def.epochs;
  s.opt.step_size = s.cfg.lambda;
  s.opt.epochs = epochs;
  s.opt.seed = c.seed;
  s.opt.reg = s.reg;
  // Φ-balanced shards (Algorithm 3) on every seed. The adaptive default
  // balances only when ρ ≥ ζ, and the news20 analog is calibrated to
  // ρ = ζ exactly, so it would flip between strategies from seed to seed and
  // make setup_s bimodal.
  s.opt.partition.strategy = partition::Strategy::kHeadTail;

  s.pack_budget = std::max<std::size_t>(1, csr_bytes(s.data) / 10);
  if (s.def.lane == Lane::kPacked) {
    s.pack_path = c.workdir + "/" + s.def.name + "-" + std::to_string(c.seed) +
                  ".issp";
    io::write_shardpack(s.pack_path, s.data, {.shard_rows = kPackShardRows});
  }

  solvers::SolverOptions o = s.opt;
  o.threads = 1;
  o.keep_final_model = true;
  solvers::Trace ref;
  if (s.def.lane == Lane::kProcess) {
    const core::Trainer sim =
        s.builder()
            .data(s.data)
            .cluster(s.cluster(distributed::Backend::kSimulate))
            .build();
    ref = sim.train(uniform_solver(Lane::kProcess), o);
  } else {
    ref = mem.train("asgd", o);
    s.ref_samples_per_s = steady_samples_per_s(ref, s.data.rows());
  }
  if (ref.points.size() != epochs + 1) {
    throw std::runtime_error("reference run stopped early");
  }
  s.target_rmse = ref.points[(epochs + 1) / 2].rmse;
  s.ref_final_rmse = ref.points.back().rmse;
  s.ref_model = std::move(ref.final_model);
}

// ---------------------------------------------------------------------------
// Untraced end-to-end runs

/// Wall-clock stamp of every epoch fence, plus the PS report.
class RunObserver final : public solvers::TrainingObserver {
 public:
  bool on_epoch(const solvers::TracePoint& point) override {
    (void)point;
    stamps.push_back(Clock::now());
    return true;
  }
  void on_diagnostics(const std::any& diagnostics) override {
    if (const auto* r =
            std::any_cast<distributed::ParamServerReport>(&diagnostics)) {
      ps = *r;
    }
  }

  std::vector<Clock::time_point> stamps;
  distributed::ParamServerReport ps;
};

struct RunRecord {
  bool ok = false;
  std::string error;
  double setup_s = kNaN;     ///< train() entry (or pack open) → epoch-0 fence
  double wall_s = kNaN;      ///< full train() wall, pack open included
  double crossing_s = kNaN;  ///< training-clock crossing of the target
  double steady_sps = kNaN;
  double final_rmse = kNaN;
  double peak_rss_mb = kNaN;
  /// Mean per-epoch gap between fence callbacks minus the epoch's training
  /// clock: evaluation plus fence work.
  double fence_gap_s = kNaN;
  /// The solver's own Trace::setup_seconds, for comparison with setup_s.
  double trace_setup_s = kNaN;
  std::vector<double> model;
  data::CacheStats cache;
  distributed::ParamServerReport ps;

  [[nodiscard]] double time_to_target() const { return setup_s + crossing_s; }
};

RunRecord run_one(const Setup& s, const core::Trainer& mem, bool importance,
                  bool keep_model) {
  const char* name =
      importance ? is_solver(s.def.lane) : uniform_solver(s.def.lane);
  RunRecord r;
  solvers::SolverOptions o = s.opt;
  o.threads = kThreads;
  o.keep_final_model = keep_model;
  RunObserver obs;
  solvers::Trace trace;
  Clock::time_point start, end;
  reset_peak_rss();
  try {
    switch (s.def.lane) {
      case Lane::kThreads:
        start = Clock::now();
        trace = mem.train(name, o, &obs);
        end = Clock::now();
        break;
      case Lane::kPacked: {
        start = Clock::now();
        const data::PackedSource source(
            s.pack_path, {.memory_budget_bytes = s.pack_budget},
            &s.ctx->pool());
        const core::Trainer trainer = s.builder().source(source).build();
        trace = trainer.train(name, o, &obs);
        end = Clock::now();
        r.cache = source.cache_stats().value_or(data::CacheStats{});
        break;
      }
      case Lane::kProcess: {
        const core::Trainer trainer =
            s.builder()
                .data(s.data)
                .cluster(s.cluster(distributed::Backend::kProcess))
                .build();
        start = Clock::now();
        trace = trainer.train(name, o, &obs);
        end = Clock::now();
        break;
      }
    }
  } catch (const std::exception& e) {
    r.error = std::string(name) + " threw: " + e.what();
    return r;
  }
  r.peak_rss_mb = peak_rss_mb();
  // The process group's memory lives mostly in its children: the server
  // model and each worker's state. Their peak joins the controller's.
  if (s.def.lane == Lane::kProcess) r.peak_rss_mb += children_peak_rss_mb();
  const std::size_t e = o.epochs;
  if (trace.points.size() != e + 1 || obs.stamps.size() != e + 1) {
    r.error = std::string(name) + ": run stopped before epoch " +
              std::to_string(e);
    return r;
  }
  r.setup_s = secs(obs.stamps[0] - start);
  r.wall_s = secs(end - start);
  r.crossing_s = trace.time_to_rmse(s.target_rmse, /*include_setup=*/false);
  r.steady_sps = steady_samples_per_s(trace, s.data.rows());
  r.final_rmse = trace.points[e].rmse;
  double gaps = 0;
  for (std::size_t k = 1; k <= e; ++k) {
    gaps += secs(obs.stamps[k] - obs.stamps[k - 1]) -
            (trace.points[k].seconds - trace.points[k - 1].seconds);
  }
  r.fence_gap_s = gaps / static_cast<double>(e);
  r.trace_setup_s = trace.setup_seconds;
  r.model = std::move(trace.final_model);
  r.ps = obs.ps;

  if (!std::isfinite(r.crossing_s)) {
    r.error = std::string(name) + " never reached the target RMSE " +
              std::to_string(s.target_rmse);
  } else if (!(r.final_rmse <= kRmseSlack * s.ref_final_rmse)) {
    r.error = std::string(name) + " ended at RMSE " +
              std::to_string(r.final_rmse) + ", more than 2% above the " +
              "reference's " + std::to_string(s.ref_final_rmse);
  } else {
    r.ok = true;
  }
  return r;
}

struct AbRuns {
  std::vector<RunRecord> is, uniform;
  /// First IS model of the process lane (the warm-up's), for the
  /// process ≡ fenced-simulator check.
  std::vector<double> first_ps_model;
};

/// One discarded warm-up per solver, then alternating IS/uniform pairs
/// (ABBA order) until --seconds have elapsed and at least kMinPairs ran.
/// Only the timed runs count as operations.
AbRuns run_ab(const Setup& s, const core::Trainer& mem, Ledger& ledger) {
  AbRuns ab;
  const bool process = s.def.lane == Lane::kProcess;
  auto keep_first_model = [&](RunRecord& r) {
    if (process && ab.first_ps_model.empty()) ab.first_ps_model = std::move(r.model);
  };
  if (!s.config.smoke) {
    for (const bool importance : {true, false}) {
      RunRecord r = run_one(s, mem, importance, importance && process);
      keep_first_model(r);
    }
  }
  const std::size_t min_pairs = s.config.smoke ? 1 : kMinPairs;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t pair = 0; pair < kMaxPairs; ++pair) {
    if (pair >= min_pairs && secs(Clock::now() - t0) >= s.config.seconds) break;
    for (int k = 0; k < 2; ++k) {
      const bool importance = (k == 0) == (pair % 2 == 0);
      RunRecord r = run_one(s, mem, importance,
                            importance && process && ab.first_ps_model.empty());
      ledger.record(r.ok, r.error);
      keep_first_model(r);
      (importance ? ab.is : ab.uniform).push_back(std::move(r));
    }
  }
  return ab;
}

Metrics end_to_end_metrics(const AbRuns& ab) {
  auto collect = [](const std::vector<RunRecord>& runs, auto field) {
    std::vector<double> out;
    for (const RunRecord& r : runs) out.push_back(field(r));
    return out;
  };
  Metrics m;
  put(m, "time_to_target_s",
      collect(ab.is, [](const RunRecord& r) { return r.time_to_target(); }));
  put(m, "asgd_time_to_target_s", collect(ab.uniform, [](const RunRecord& r) {
        return r.time_to_target();
      }));
  put(m, "samples_per_s",
      collect(ab.is, [](const RunRecord& r) { return r.steady_sps; }));
  put(m, "asgd_samples_per_s",
      collect(ab.uniform, [](const RunRecord& r) { return r.steady_sps; }));
  put(m, "setup_s", collect(ab.is, [](const RunRecord& r) { return r.setup_s; }));
  put(m, "run_wall_s",
      collect(ab.is, [](const RunRecord& r) { return r.wall_s; }));
  put(m, "final_rmse",
      collect(ab.is, [](const RunRecord& r) { return r.final_rmse; }));
  // Peak memory is the maximum over the IS runs, not their median.
  const std::vector<double> rss =
      collect(ab.is, [](const RunRecord& r) { return r.peak_rss_mb; });
  put(m, "peak_rss_mb", rss);
  m["peak_rss_mb"].value = m["peak_rss_mb"].q.n == 0
                               ? kNaN
                               : *std::max_element(rss.begin(), rss.end());
  return m;
}

// ---------------------------------------------------------------------------
// Checks that run on every invocation of their lane.

/// is_asgd@1 on the pack must equal is_asgd@1 in memory, bit for bit.
void check_packed_parity(const Setup& s, const core::Trainer& mem,
                         Ledger& ledger) {
  solvers::SolverOptions o = s.opt;
  o.threads = 1;
  o.epochs = 2;
  o.keep_final_model = true;
  bool ok = false;
  try {
    const data::PackedSource source(
        s.pack_path, {.memory_budget_bytes = s.pack_budget}, &s.ctx->pool());
    const core::Trainer packed = s.builder().source(source).build();
    ok = bit_identical(packed.train("is_asgd", o).final_model,
                       mem.train("is_asgd", o).final_model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isbench: packed parity threw: %s\n", e.what());
  }
  ledger.record(ok, "is_asgd@1 on the pack differs from in-memory");
}

/// The dist.ps.is_asgd process run must equal the fenced simulator.
void check_process_parity(const Setup& s, const AbRuns& ab, Ledger& ledger) {
  solvers::SolverOptions o = s.opt;
  o.keep_final_model = true;
  bool ok = false;
  try {
    const core::Trainer sim =
        s.builder()
            .data(s.data)
            .cluster(s.cluster(distributed::Backend::kSimulate))
            .build();
    ok = bit_identical(ab.first_ps_model,
                       sim.train(is_solver(Lane::kProcess), o).final_model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isbench: process parity threw: %s\n", e.what());
  }
  ledger.record(ok, "dist.ps.is_asgd process run differs from the fenced "
                    "simulator");
}

// ---------------------------------------------------------------------------
// Traced replay of the IS-ASGD epoch.
//
// The replay rebuilds run_is_asgd from public calls with the same seeds and
// the same order: importance → PartitionPlan → one BlockSequence per worker
// → per draw the kernel-table gather, the objective's gradient scale and the
// fused update on the shared model. Traced, each worker reads the clock once
// per call boundary, so its intervals tile its epoch span: the draw of each
// 1024-index block, then per sample the gather, the gradient and the
// update. One span is kept per block, with the per-call times accumulated
// inside it; each interval has the calibrated cost of one clock read
// subtracted. The main thread closes each worker's epoch with a fence-wait
// span, from the worker's last clock read to ThreadPool::run's return. What
// is left unattributed is the pool's dispatch, from the run call to each
// worker's first clock read.

/// One recorded span; times in ns from the replay's origin. Block spans
/// also carry the per-call layer time accumulated inside them.
struct Span {
  const char* name = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t draw_end_ns = 0;  ///< block spans: end of next_block()
  std::uint32_t draws = 0;
  double gather_ns = 0, gradient_ns = 0, update_ns = 0;
};

/// Layer time of the workers, net of timer cost.
struct LayerTotals {
  double sampling_ns = 0, gather_ns = 0, gradient_ns = 0, update_ns = 0;
  std::uint64_t draws = 0;
  std::uint64_t intervals = 0;  ///< clock-read intervals (timer cost count)

  void add(const LayerTotals& o) {
    sampling_ns += o.sampling_ns;
    gather_ns += o.gather_ns;
    gradient_ns += o.gradient_ns;
    update_ns += o.update_ns;
    draws += o.draws;
    intervals += o.intervals;
  }
  [[nodiscard]] double attributed_ns() const {
    return sampling_ns + gather_ns + gradient_ns + update_ns;
  }
};

struct ReplayResult {
  std::size_t threads = 0;
  double importance_s = 0, plan_s = 0, alias_s = 0, phi_imbalance = 0;
  double wall_s = 0;  ///< Σ epoch walls (ThreadPool::run dispatch → return)
  /// Σ over workers and epochs of the time from a worker's last clock read
  /// to ThreadPool::run's return: idle at the fence, waiting for the
  /// slowest worker. Net of timer cost, like the layer times.
  double fence_wait_ns = 0;
  LayerTotals layers;
  std::vector<std::vector<Span>> spans;  ///< [0] main thread, [1 + tid] workers
  std::vector<double> model;

  [[nodiscard]] double samples_per_s() const {
    return static_cast<double>(layers.draws) / wall_s;
  }
  /// Per-sample layer time in ns.
  [[nodiscard]] double per_sample(double total_ns) const {
    return total_ns / static_cast<double>(layers.draws);
  }
  /// T × the epoch walls, less the cost of the clock reads inside them.
  [[nodiscard]] double worker_ns(double timer_ns) const {
    return static_cast<double>(threads) * wall_s * 1e9 -
           static_cast<double>(layers.intervals) * timer_ns;
  }
  [[nodiscard]] double fence_wait_frac(double timer_ns) const {
    return fence_wait_ns / worker_ns(timer_ns);
  }
  /// What neither a layer nor the fence wait covers: the pool's dispatch
  /// (waking the workers) and the code between their clock reads.
  [[nodiscard]] double unattributed_frac(double timer_ns) const {
    return 1.0 - (layers.attributed_ns() + fence_wait_ns) / worker_ns(timer_ns);
  }
};

template <bool kTraced>
ReplayResult replay_is_asgd(const sparse::CsrMatrix& X,
                            const data::RowStats* stats,
                            const objectives::Objective& objective,
                            solvers::SolverOptions opt, std::size_t threads,
                            util::ThreadPool& pool, double timer_ns,
                            Clock::time_point origin) {
  ReplayResult out;
  out.threads = threads;
  out.spans.resize(threads + 1);
  opt.threads = threads;
  auto rel = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };

  // Offline phase, exactly as run_is_asgd does it.
  const Clock::time_point t0 = Clock::now();
  const std::vector<double> importance =
      stats != nullptr && solvers::detail::stats_feed_importance(opt)
          ? solvers::detail::importance_weights_from_stats(*stats, 0, X.rows(),
                                                           objective, opt)
          : solvers::detail::importance_weights(X, objective, opt);
  const Clock::time_point t1 = Clock::now();
  partition::PartitionOptions popt = opt.partition;
  popt.shuffle_seed = opt.seed ^ 0x1517;
  const partition::PartitionPlan plan(importance, threads, popt);
  const Clock::time_point t2 = Clock::now();
  struct Worker {
    std::vector<double> weight;
    std::unique_ptr<sampling::BlockSequence> seq;
    std::uint64_t seed = 0;
  };
  std::vector<Worker> workers(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    const partition::Shard shard = plan.shard(tid);
    const std::size_t local_n = shard.rows.size();
    Worker& ws = workers[tid];
    ws.seed = util::derive_seed(opt.seed, 101 + tid);
    ws.weight.resize(local_n);
    for (std::size_t k = 0; k < local_n; ++k) {
      const double p = shard.probabilities[k];
      ws.weight[k] = p > 0 ? 1.0 / (static_cast<double>(local_n) * p) : 1.0;
    }
    if (local_n > 0) {
      ws.seq = std::make_unique<sampling::BlockSequence>(
          solvers::detail::block_mode(opt), shard.probabilities, local_n,
          ws.seed);
    }
    const std::size_t blocks =
        (local_n + sampling::BlockSequence::kDefaultBlockSize - 1) /
        sampling::BlockSequence::kDefaultBlockSize;
    // Per epoch: the blocks, begin_epoch, worker_epoch and the fence wait.
    out.spans[tid + 1].reserve((blocks + 3) * opt.epochs);
  }
  const Clock::time_point t3 = Clock::now();
  out.importance_s = secs(t1 - t0);
  out.plan_s = secs(t2 - t1);
  out.alias_s = secs(t3 - t2);
  out.phi_imbalance = plan.imbalance();
  std::vector<Span>& main_spans = out.spans[0];
  main_spans.push_back({.name = "partition.importance", .begin_ns = rel(t0),
                        .end_ns = rel(t1)});
  main_spans.push_back(
      {.name = "partition.plan", .begin_ns = rel(t1), .end_ns = rel(t2)});
  main_spans.push_back(
      {.name = "sampling.alias_build", .begin_ns = rel(t2), .end_ns = rel(t3)});

  solvers::SharedModel model(X.dim());
  const sparse::kernels::KernelTable& kernels = sparse::kernels::active();
  const double l1 = opt.reg.eta_l1();
  const double l2 = opt.reg.eta_l2();
  std::vector<LayerTotals> totals(threads);
  std::vector<Clock::time_point> worker_end(threads);  ///< last clock read

  auto worker_epoch = [&](std::size_t tid, std::size_t epoch) {
    Worker& ws = workers[tid];
    if (!ws.seq) return;
    const partition::Shard shard = plan.shard(tid);
    sampling::BlockSequence& seq = *ws.seq;
    std::vector<Span>& spans = out.spans[tid + 1];
    LayerTotals acc;
    Clock::time_point t{};
    if constexpr (kTraced) t = Clock::now();
    const Clock::time_point epoch_begin = t;
    seq.begin_epoch(epoch, util::derive_seed(ws.seed, epoch - 1));
    const double lambda = solvers::epoch_step(opt, epoch);
    if constexpr (kTraced) {
      const Clock::time_point now = Clock::now();
      acc.sampling_ns += nanos(now - t) - timer_ns;
      ++acc.intervals;
      spans.push_back({.name = "sampling.begin_epoch", .begin_ns = rel(t),
                       .end_ns = rel(now)});
      t = now;
    }
    while (true) {
      const std::span<const std::uint32_t> block = seq.next_block();
      const Clock::time_point block_begin = t;
      if constexpr (kTraced) {
        const Clock::time_point now = Clock::now();
        acc.sampling_ns += nanos(now - t) - timer_ns;
        ++acc.intervals;
        t = now;
      }
      const Clock::time_point drawn = t;
      if (block.empty()) break;
      double gather = 0, gradient = 0, update = 0;
      for (const std::uint32_t slot : block) {
        const std::size_t i = shard.rows[slot];
        const sparse::SparseVectorView x = X.row(i);
        const double margin = kernels.sparse_dot(model.wild_view(), x);
        if constexpr (kTraced) {
          const Clock::time_point now = Clock::now();
          gather += nanos(now - t);
          t = now;
        }
        const double g = objective.gradient_scale(margin, X.label(i));
        const double step = lambda * ws.weight[slot];
        if constexpr (kTraced) {
          const Clock::time_point now = Clock::now();
          gradient += nanos(now - t);
          t = now;
        }
        kernels.sparse_dot_residual_axpy(model.wild_view(), x, step, g, l1, l2);
        if constexpr (kTraced) {
          const Clock::time_point now = Clock::now();
          update += nanos(now - t);
          t = now;
        }
      }
      acc.draws += block.size();
      if constexpr (kTraced) {
        const double cost = static_cast<double>(block.size()) * timer_ns;
        gather -= cost;
        gradient -= cost;
        update -= cost;
        acc.gather_ns += gather;
        acc.gradient_ns += gradient;
        acc.update_ns += update;
        acc.intervals += 3 * block.size();
        spans.push_back({.name = "block",
                         .begin_ns = rel(block_begin),
                         .end_ns = rel(t),
                         .draw_end_ns = rel(drawn),
                         .draws = static_cast<std::uint32_t>(block.size()),
                         .gather_ns = gather,
                         .gradient_ns = gradient,
                         .update_ns = update});
      }
    }
    if constexpr (kTraced) {
      spans.push_back({.name = "worker_epoch", .begin_ns = rel(epoch_begin),
                       .end_ns = rel(t)});
      worker_end[tid] = t;
    }
    totals[tid].add(acc);
  };

  pool.reserve(threads);
  std::uint64_t fence_intervals = 0;
  for (std::size_t epoch = 1; epoch <= opt.epochs; ++epoch) {
    const Clock::time_point a = Clock::now();
    std::fill(worker_end.begin(), worker_end.end(), a);  // idle workers
    pool.run(threads, [&](std::size_t tid) { worker_epoch(tid, epoch); });
    const Clock::time_point b = Clock::now();
    out.wall_s += secs(b - a);
    if constexpr (kTraced) {
      main_spans.push_back(
          {.name = "epoch", .begin_ns = rel(a), .end_ns = rel(b)});
      for (std::size_t tid = 0; tid < threads; ++tid) {
        out.fence_wait_ns += nanos(b - worker_end[tid]) - timer_ns;
        out.spans[tid + 1].push_back({.name = "util.fence_wait",
                                      .begin_ns = rel(worker_end[tid]),
                                      .end_ns = rel(b)});
      }
      fence_intervals += threads;
    }
  }
  for (const LayerTotals& t : totals) out.layers.add(t);
  out.layers.intervals += fence_intervals;
  out.model = model.snapshot();
  return out;
}

/// Chrome trace JSON (open in Perfetto or chrome://tracing). One process
/// per replay, one track per thread; block spans carry their per-call layer
/// times as args and their draw as a child span.
void write_chrome_trace(const std::string& path,
                        const std::vector<const ReplayResult*>& replays) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  auto emit = [&](const char* event) {
    if (!first) out << ",\n";
    first = false;
    out << event;
  };
  auto x_event = [&](const char* name, int pid, std::size_t tid,
                     std::int64_t begin, std::int64_t end) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,"
                  "\"ts\":%.3f,\"dur\":%.3f",
                  name, pid, tid, static_cast<double>(begin) / 1e3,
                  static_cast<double>(end - begin) / 1e3);
    return std::string(buf);
  };
  int pid = 1;
  for (const ReplayResult* r : replays) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"is_asgd replay, %zu thread%s\"}}",
                  pid, r->threads, r->threads == 1 ? "" : "s");
    emit(buf);
    for (std::size_t tid = 0; tid < r->spans.size(); ++tid) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":%zu,\"args\":{\"name\":\"%s %zu\"}}",
                    pid, tid, tid == 0 ? "main" : "worker",
                    tid == 0 ? std::size_t{0} : tid - 1);
      emit(buf);
      for (const Span& s : r->spans[tid]) {
        std::string ev = x_event(s.name, pid, tid, s.begin_ns, s.end_ns);
        if (std::strcmp(s.name, "block") == 0) {
          std::snprintf(buf, sizeof(buf),
                        ",\"args\":{\"draws\":%u,\"sparse.gather_ns\":%.0f,"
                        "\"objectives.gradient_ns\":%.0f,"
                        "\"sparse.update_ns\":%.0f}}",
                        s.draws, s.gather_ns, s.gradient_ns, s.update_ns);
          emit((ev + buf).c_str());
          emit((x_event("sampling.draw", pid, tid, s.begin_ns, s.draw_end_ns) +
                "}")
                   .c_str());
        } else {
          emit((ev + "}").c_str());
        }
      }
    }
    ++pid;
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Per-layer probes: each times calls into one layer's public functions.

/// ThreadPool::run(T, noop): the cost of one epoch fence, in µs.
double pool_fence_us(util::ThreadPool& pool, std::size_t calls) {
  pool.reserve(kThreads);
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  std::vector<double> us;
  for (std::size_t i = 0; i < calls + calls / 10; ++i) {
    const Clock::time_point a = Clock::now();
    pool.run(kThreads, noop);
    const Clock::time_point b = Clock::now();
    if (i >= calls / 10) us.push_back(nanos(b - a) / 1e3);
  }
  return median_of(us);
}

struct PackProbe {
  std::vector<double> open_s, materialize_s, fault_us;
};

/// Cold PackedSource open, a cold fault of every shard, and materialize(),
/// each on a freshly opened source.
PackProbe probe_pack(const std::string& path, std::size_t budget,
                     std::size_t repeats) {
  PackProbe p;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    {
      const Clock::time_point a = Clock::now();
      const data::PackedSource source(
          path, {.memory_budget_bytes = budget, .prefetch = false});
      p.open_s.push_back(secs(Clock::now() - a));
      double fault_ns = 0;
      for (std::size_t sh = 0; sh < source.shard_count(); ++sh) {
        const Clock::time_point b = Clock::now();
        const data::ShardPtr shard = source.shard(sh);
        fault_ns += nanos(Clock::now() - b);
        g_sink = g_sink + static_cast<double>(shard->matrix->nnz());
      }
      p.fault_us.push_back(fault_ns / 1e3 /
                           static_cast<double>(source.shard_count()));
    }
    const data::PackedSource source(
        path, {.memory_budget_bytes = budget, .prefetch = false});
    const Clock::time_point a = Clock::now();
    g_sink = g_sink + static_cast<double>(source.materialize().nnz());
    p.materialize_s.push_back(secs(Clock::now() - a));
  }
  return p;
}

/// Per-sample wire time of the PS protocol over shm: one kStep/kStepReply
/// and one kPush/kPushAck round trip with the payload sizes a sample of
/// `nnz` nonzeros produces, echoed by a second thread. Median in µs.
double shm_round_trip_us(const std::string& workdir, std::size_t nnz,
                         std::size_t iterations) {
  namespace wire = distributed::wire;
  constexpr int kTimeoutMs = 10000;
  const std::string address =
      "shm://" + workdir + "/echo_" + std::to_string(::getpid());
  const std::unique_ptr<net::Listener> listener = net::listen(address);
  listener->set_accept_timeout(kTimeoutMs);
  std::exception_ptr server_error;
  std::thread server([&] {
    try {
      const std::unique_ptr<net::Endpoint> ep = listener->accept();
      ep->set_io_timeout(kTimeoutMs);
      const std::string step_reply(8 + 8 * nnz, '\0');
      const std::string push_ack(8, '\0');
      while (true) {
        const net::Frame f = net::read_frame(*ep);
        if (f.type == wire::kStep) {
          net::write_frame(*ep, wire::kStepReply, step_reply);
        } else if (f.type == wire::kPush) {
          net::write_frame(*ep, wire::kPushAck, push_ack);
        } else {
          break;
        }
      }
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  std::exception_ptr client_error;
  std::vector<double> us;
  try {
    const std::unique_ptr<net::Endpoint> ep = net::connect(address, kTimeoutMs);
    ep->set_io_timeout(kTimeoutMs);
    const std::string step(8 + 4 + 4 * nnz, '\0');
    const std::string push(8 + 4 + 8 + 8 + 4 + 12 * nnz, '\0');
    const std::size_t warmup = iterations / 10;
    for (std::size_t i = 0; i < warmup + iterations; ++i) {
      const Clock::time_point a = Clock::now();
      net::write_frame(*ep, wire::kStep, step);
      (void)net::read_frame(*ep);
      net::write_frame(*ep, wire::kPush, push);
      (void)net::read_frame(*ep);
      if (i >= warmup) us.push_back(nanos(Clock::now() - a) / 1e3);
    }
    net::write_frame(*ep, wire::kEpochEnd, "");
  } catch (...) {
    client_error = std::current_exception();
  }
  server.join();
  if (client_error) std::rethrow_exception(client_error);
  if (server_error) std::rethrow_exception(server_error);
  return median_of(us);
}

/// fenced::apply_push per push (the PS server's apply), in ns.
double apply_push_ns(const Setup& s, std::size_t pushes) {
  const sparse::CsrMatrix& X = s.data;
  std::vector<double> w(X.dim(), 0.0);
  const Clock::time_point a = Clock::now();
  for (std::size_t p = 0; p < pushes; ++p) {
    const sparse::SparseVectorView x = X.row(p % X.rows());
    distributed::fenced::apply_push(x.indices(), x.values(), 0.25,
                                    s.opt.step_size, s.reg, w);
  }
  const double ns = nanos(Clock::now() - a) / static_cast<double>(pushes);
  g_sink = g_sink + w[X.row(0).indices()[0]];
  return ns;
}

/// Shard-cache ratios from counter totals.
void put_cache_ratios(Metrics& m, const data::CacheStats& c) {
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  put(m, "data.cache_hit_ratio", ratio(c.hits, c.hits + c.misses));
  put(m, "data.prefetch_useful_ratio",
      ratio(c.prefetch_hits, c.prefetch_issued));
  put(m, "data.prefetch_race_ratio", ratio(c.prefetch_races, c.prefetch_issued));
}

void add_cache(data::CacheStats& into, const data::CacheStats& c) {
  into.hits += c.hits;
  into.misses += c.misses;
  into.prefetch_issued += c.prefetch_issued;
  into.prefetch_hits += c.prefetch_hits;
  into.prefetch_races += c.prefetch_races;
}

/// The traced run: replays, layer probes, and the checks that need them.
/// The data layer is probed on packed-ooc only, and the net and distributed
/// layers on ps-shm only: no other workload runs them, so elsewhere they
/// read 0.
Metrics layer_metrics(const Setup& s, const core::Trainer& mem,
                      const AbRuns& ab, const Metrics& e2e, double timer_ns,
                      Ledger& ledger) {
  const Config& c = s.config;
  util::ThreadPool& pool = s.ctx->pool();
  const Lane lane = s.def.lane;
  const std::size_t rows = s.data.rows();
  Metrics m;

  // Packed lane: the replay takes its importance from the pack's sidecar,
  // as is_asgd does on a PackedSource.
  std::unique_ptr<data::PackedSource> stats_source;
  if (lane == Lane::kPacked) {
    stats_source = std::make_unique<data::PackedSource>(
        s.pack_path, data::PackedOptions{.memory_budget_bytes = s.pack_budget});
  }
  const data::RowStats* stats =
      stats_source ? stats_source->row_stats() : nullptr;

  // ---- replays: untraced/traced pairs at T, then traced at 1 thread
  solvers::SolverOptions ro = s.opt;
  ro.epochs = c.smoke ? 2 : kReplayEpochs;
  const Clock::time_point origin = Clock::now();
  const std::size_t repeats = c.smoke ? 1 : kReplayRepeats;
  std::vector<double> untraced_sps, traced_sps, importance_s, plan_s, alias_s,
      draw, gather, gradient, update, step_t, fence_wait, unattributed;
  ReplayResult last_t, last_1;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const ReplayResult u = replay_is_asgd<false>(s.data, stats, s.loss, ro,
                                                 kThreads, pool, timer_ns, origin);
    untraced_sps.push_back(u.samples_per_s());
    ReplayResult r = replay_is_asgd<true>(s.data, stats, s.loss, ro, kThreads,
                                          pool, timer_ns, origin);
    traced_sps.push_back(r.samples_per_s());
    importance_s.push_back(r.importance_s);
    plan_s.push_back(r.plan_s);
    alias_s.push_back(r.alias_s);
    draw.push_back(r.per_sample(r.layers.sampling_ns));
    gather.push_back(r.per_sample(r.layers.gather_ns));
    gradient.push_back(r.per_sample(r.layers.gradient_ns));
    update.push_back(r.per_sample(r.layers.update_ns));
    step_t.push_back(r.per_sample(r.layers.attributed_ns() - r.layers.sampling_ns));
    fence_wait.push_back(r.fence_wait_frac(timer_ns));
    unattributed.push_back(r.unattributed_frac(timer_ns));
    last_t = std::move(r);
  }
  std::vector<double> gather_1, update_1, step_1;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    ReplayResult r = replay_is_asgd<true>(s.data, stats, s.loss, ro, 1, pool,
                                          timer_ns, origin);
    gather_1.push_back(r.per_sample(r.layers.gather_ns));
    update_1.push_back(r.per_sample(r.layers.update_ns));
    step_1.push_back(r.per_sample(r.layers.attributed_ns() - r.layers.sampling_ns));
    last_1 = std::move(r);
  }
  {
    solvers::SolverOptions o = ro;
    o.threads = 1;
    o.keep_final_model = true;
    bool ok = false;
    try {
      ok = bit_identical(last_1.model, mem.train("is_asgd", o).final_model);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "isbench: replay check threw: %s\n", e.what());
    }
    ledger.record(ok, "1-thread replay differs from is_asgd@1");
  }
  std::filesystem::create_directories(c.trace_dir);
  write_chrome_trace(c.trace_dir + "/" + s.def.name + ".trace.json",
                     {&last_t, &last_1});

  put(m, "partition.importance_s", importance_s);
  put(m, "partition.plan_s", plan_s);
  put(m, "sampling.alias_build_s", alias_s);
  put(m, "sampling.draw_ns", draw);
  put(m, "sparse.gather_ns", gather);
  put(m, "sparse.update_ns", update);
  put(m, "objectives.gradient_ns", gradient);
  put(m, "sparse.gather_1t_ns", gather_1);
  put(m, "sparse.update_1t_ns", update_1);
  put(m, "solvers.contention_x", median_of(step_t) / median_of(step_1));
  put(m, "util.fence_wait_frac", fence_wait);
  put(m, "solvers.unattributed_frac", unattributed);
  put(m, "trace.overhead_frac",
      1.0 - median_of(traced_sps) / median_of(untraced_sps));

  // ---- scaling: the uniform twin against T × the serial asgd@1 rate. The
  // reference run is asgd@1 on every lane but the process lane.
  double serial = s.ref_samples_per_s;
  if (!std::isfinite(serial)) {
    solvers::SolverOptions o = s.opt;
    o.threads = 1;
    serial = steady_samples_per_s(mem.train("asgd", o), rows);
  }
  put(m, "solvers.scaling_eff",
      e2e.at("asgd_samples_per_s").value /
          (static_cast<double>(kThreads) * serial));
  put(m, "is_speedup", e2e.at("asgd_time_to_target_s").value /
                           e2e.at("time_to_target_s").value);

  // ---- util, metrics
  put(m, "util.fence_us", pool_fence_us(pool, c.smoke ? 200 : 2000));
  // Evaluation through the lane's own trainer: the packed lane scores
  // shard by shard through the cache, as its runs do. Each call follows a
  // pool dispatch, as an evaluation at an epoch fence does.
  std::vector<double> eval_s;
  auto time_eval = [&](const core::Trainer& trainer) {
    for (int rep = 0; rep < 9; ++rep) {
      pool.run(kThreads, [](std::size_t) {});
      const Clock::time_point a = Clock::now();
      g_sink = g_sink + trainer.evaluate(s.ref_model).rmse;
      eval_s.push_back(secs(Clock::now() - a));
    }
  };
  if (lane == Lane::kPacked) {
    const data::PackedSource source(
        s.pack_path, {.memory_budget_bytes = s.pack_budget}, &pool);
    time_eval(s.builder().source(source).build());
  } else {
    time_eval(mem);
  }
  put(m, "metrics.eval_s", eval_s);
  put(m, "partition.phi_imbalance",
      lane == Lane::kProcess && !ab.is.empty() ? ab.is.front().ps.phi_imbalance
                                               : last_t.phi_imbalance);

  // ---- data: the pack itself, and the cache over the untraced asgd runs
  if (lane == Lane::kPacked) {
    const PackProbe probe = probe_pack(s.pack_path, s.pack_budget, c.smoke ? 1 : 3);
    put(m, "data.open_s", probe.open_s);
    put(m, "data.materialize_s", probe.materialize_s);
    put(m, "data.shard_fault_us", probe.fault_us);
    data::CacheStats cache;
    for (const RunRecord& r : ab.uniform) add_cache(cache, r.cache);
    put_cache_ratios(m, cache);
  }

  // ---- net, distributed
  if (lane == Lane::kProcess) {
    const std::size_t mean_nnz =
        std::max<std::size_t>(1, s.data.nnz() / std::max<std::size_t>(1, rows));
    put(m, "net.shm_rtt_us",
        shm_round_trip_us(c.workdir, mean_nnz, c.smoke ? 200 : 2000));
    std::vector<double> ps_setup_s;
    for (std::size_t rep = 0; rep < (c.smoke ? 1u : 3u); ++rep) {
      const Clock::time_point a = Clock::now();
      const distributed::fenced::Setup setup =
          distributed::fenced::make_ps_setup(s.data, s.loss, s.opt, kThreads,
                                             /*use_importance=*/true);
      ps_setup_s.push_back(secs(Clock::now() - a));
      g_sink = g_sink + setup.plan->imbalance();
    }
    put(m, "distributed.setup_s", ps_setup_s);
    put(m, "distributed.apply_ns", apply_push_ns(s, c.smoke ? 20000 : 400000));
    std::vector<double> fence_s, bytes, messages;
    double retries = 0;
    const double eval_median = median_of(eval_s);
    const double samples = static_cast<double>(rows * s.opt.epochs);
    for (const RunRecord& r : ab.is) {
      fence_s.push_back(r.fence_gap_s - eval_median);
      bytes.push_back(static_cast<double>(r.ps.bytes_sent) / samples);
      messages.push_back(static_cast<double>(r.ps.messages) / samples);
      retries += static_cast<double>(r.ps.wire_retries);
    }
    put(m, "distributed.fence_s", fence_s);
    put(m, "distributed.bytes_per_sample", bytes);
    put(m, "distributed.messages_per_sample", messages);
    put(m, "distributed.wire_retries", retries);
  }

  for (const MetricDef& d : kPerLayer) {
    if (!m.contains(d.name)) put(m, d.name, 0.0);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Driver

struct Outcome {
  Metrics e2e, layers;
  Ledger ledger;
  double target_rmse = kNaN, ref_final_rmse = kNaN;
  double trace_setup_s = kNaN;  ///< median IS Trace::setup_seconds
  std::size_t rows = 0, dim = 0, nnz = 0, epochs = 0, pairs = 0;
};

Outcome run_workload(const WorkloadDef& def, const Config& c,
                     const core::ExecutionContextPtr& ctx, double timer_ns) {
  Outcome out;
  Setup s(def, c, ctx);
  s.cfg = data::paper_dataset_config(
      def.dataset, def.scale * (c.smoke ? kSmokeScale : 1.0));
  s.cfg.spec.seed = util::derive_seed(c.seed, s.cfg.spec.seed);
  if (def.dim != 0) {
    s.cfg.spec.dim = static_cast<std::size_t>(
        static_cast<double>(def.dim) * (c.smoke ? kSmokeScale : 1.0));
  }
  s.data = data::generate(s.cfg.spec);
  const core::Trainer mem = s.builder().data(s.data).build();
  prepare(s, mem);
  const AbRuns ab = run_ab(s, mem, out.ledger);
  if (def.lane == Lane::kPacked) check_packed_parity(s, mem, out.ledger);
  if (def.lane == Lane::kProcess) check_process_parity(s, ab, out.ledger);
  out.e2e = end_to_end_metrics(ab);
  if (c.trace) {
    out.layers = layer_metrics(s, mem, ab, out.e2e, timer_ns, out.ledger);
  }
  if (!s.pack_path.empty()) std::filesystem::remove(s.pack_path);
  out.target_rmse = s.target_rmse;
  out.ref_final_rmse = s.ref_final_rmse;
  out.rows = s.data.rows();
  out.dim = s.data.dim();
  out.nnz = s.data.nnz();
  out.epochs = s.opt.epochs;
  out.pairs = ab.is.size();
  std::vector<double> trace_setup;
  for (const RunRecord& r : ab.is) trace_setup.push_back(r.trace_setup_s);
  out.trace_setup_s = median_of(trace_setup);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// The result line: every metric of `defs` as {value, unit}.
std::string result_line(const Outcome& o, const Metrics& m,
                        std::span<const MetricDef> defs) {
  std::string line = "{\"correct\": ";
  line += o.ledger.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.ledger.attempted);
  line += ", \"failed\": " + std::to_string(o.ledger.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    line += std::string(first ? "" : ", ") + json_string(d.name) +
            ": {\"value\": " +
            json_number(it == m.end() ? kNaN : it->second.value) +
            ", \"unit\": " + json_string(d.unit) + "}";
    first = false;
  }
  return line + "}}";
}

std::string metrics_detail(const Metrics& m, std::span<const MetricDef> defs) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    const Metric v = it == m.end() ? Metric{} : it->second;
    out += std::string(first ? "\n" : ",\n") + "    " + json_string(d.name) +
           ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(d.unit) +
           ", \"better\": " + json_string(d.better) +
           ", \"q1\": " + json_number(v.q.q1) +
           ", \"median\": " + json_number(v.q.median) +
           ", \"q3\": " + json_number(v.q.q3) +
           ", \"n\": " + std::to_string(v.q.n) + "}";
    first = false;
  }
  return out + "\n  }";
}

std::string host_json(const Config& c, double timer_ns, bool rss_reset) {
  namespace k = sparse::kernels;
  return "{\"commit\": " + json_string(c.commit) +
         ", \"build_type\": " + json_string(ISBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(__VERSION__) +
         ", \"kernel_backend\": " + json_string(k::backend_name(k::active_backend())) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"numa_nodes\": " +
         std::to_string(core::NumaTopology::detect().node_count()) +
         ", \"seed\": " + std::to_string(c.seed) +
         ", \"timer_overhead_ns\": " + json_number(timer_ns) +
         ", \"peak_rss_reset\": " + (rss_reset ? "true" : "false") + "}";
}

/// The full record --out writes: host header, workload, both metric sets
/// with quartiles, and every failure.
std::string record_json(const WorkloadDef& def, const Config& c,
                        const Outcome& o, const std::string& host) {
  std::string failures = "[";
  for (std::size_t i = 0; i < o.ledger.failures.size(); ++i) {
    failures += (i ? ", " : "") + json_string(o.ledger.failures[i]);
  }
  failures += "]";
  std::string out = "{\n  \"host\": " + host + ",\n  \"workload\": {\"name\": " +
                    json_string(def.name) +
                    ", \"rows\": " + std::to_string(o.rows) +
                    ", \"dim\": " + std::to_string(o.dim) +
                    ", \"nnz\": " + std::to_string(o.nnz) +
                    ", \"epochs\": " + std::to_string(o.epochs) +
                    ", \"threads\": " + std::to_string(kThreads) +
                    ", \"seconds\": " + json_number(c.seconds) +
                    ", \"pairs\": " + std::to_string(o.pairs) +
                    ", \"target_rmse\": " + json_number(o.target_rmse) +
                    ", \"reference_final_rmse\": " +
                    json_number(o.ref_final_rmse) +
                    ", \"solver_trace_setup_s\": " +
                    json_number(o.trace_setup_s) + "},\n";
  out += "  \"trace\": " + std::string(c.trace ? "1" : "0") + ",\n";
  out += "  \"correct\": " + std::string(o.ledger.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.ledger.attempted) +
         ", \"failed\": " + std::to_string(o.ledger.failed) +
         ", \"failures\": " + failures + ",\n";
  out += "  \"e2e\": " + metrics_detail(o.e2e, kEndToEnd);
  if (c.trace) out += ",\n  \"layers\": " + metrics_detail(o.layers, kPerLayer);
  return out + "\n}\n";
}

void print_metrics(const Metrics& m, std::span<const MetricDef> defs) {
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    const Metric v = it == m.end() ? Metric{} : it->second;
    std::printf("  %-32s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%zu]\n", d.name,
                v.value, d.unit, v.q.q1, v.q.q3, v.q.n);
  }
}

/// Output-schema validation: exactly the tables' metrics, each a finite
/// number; end-to-end metrics are never zero.
bool validate_metrics(const Metrics& m, std::span<const MetricDef> defs,
                      bool nonzero, std::string& why) {
  if (m.size() != defs.size()) {
    why = "expected " + std::to_string(defs.size()) + " metrics, got " +
          std::to_string(m.size());
    return false;
  }
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    if (it == m.end() || !std::isfinite(it->second.value) ||
        (nonzero && it->second.value == 0)) {
      why = std::string("metric ") + d.name + " is missing, not finite or 0";
      return false;
    }
  }
  return true;
}

/// Checks that BENCHMARK.json lists every workload and every metric with
/// the unit and direction this binary reports.
bool validate_schema_file(const std::string& path, std::string& why) {
  std::ifstream in(path);
  if (!in) {
    why = "cannot read " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  for (const WorkloadDef& w : kWorkloads) {
    if (text.find("\"name\": \"" + std::string(w.name) + "\"") ==
        std::string::npos) {
      why = path + " lacks workload " + w.name;
      return false;
    }
  }
  for (const auto& table : {std::span<const MetricDef>(kEndToEnd),
                            std::span<const MetricDef>(kPerLayer)}) {
    for (const MetricDef& d : table) {
      const std::string needle = "{\"name\": \"" + std::string(d.name) +
                                 "\", \"unit\": \"" + d.unit +
                                 "\", \"better\": \"" + d.better + "\"";
      if (text.find(needle) == std::string::npos) {
        why = path + " does not list " + needle + "}";
        return false;
      }
    }
  }
  return true;
}

int run_smoke(Config c, const core::ExecutionContextPtr& ctx, double timer_ns,
              const std::string& schema) {
  c.smoke = true;
  c.trace = true;
  c.seconds = 0;
  int failures = 0;
  std::string why;
  if (!schema.empty() && !validate_schema_file(schema, why)) {
    std::fprintf(stderr, "isbench: schema: %s\n", why.c_str());
    ++failures;
  }
  for (const WorkloadDef& def : kWorkloads) {
    const Clock::time_point a = Clock::now();
    const Outcome o = run_workload(def, c, ctx, timer_ns);
    bool ok = o.ledger.failed == 0 && o.ledger.attempted > 0;
    if (!validate_metrics(o.e2e, kEndToEnd, /*nonzero=*/true, why) ||
        !validate_metrics(o.layers, kPerLayer, /*nonzero=*/false, why)) {
      std::fprintf(stderr, "isbench: %s: %s\n", def.name, why.c_str());
      ok = false;
    }
    std::printf("smoke %-18s %s  (%zu operations, %zu failed, %.1fs)\n",
                def.name, ok ? "ok" : "FAIL", o.ledger.attempted,
                o.ledger.failed, secs(Clock::now() - a));
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "isbench",
      "IS-ASGD time to a target RMSE against ASGD on four execution paths, "
      "plus a traced per-layer breakdown (see benchmark/README.md)");
  cli.add_flag("workload", "",
               "news20-contended | url-sparse | packed-ooc | ps-shm");
  cli.add_flag("seed", "1", "seed of the data generator and the solvers");
  cli.add_flag("seconds", "25", "time budget of the timed A/B runs");
  cli.add_flag("trace", "0",
               "1 = also run the traced replay and report per-layer metrics");
  cli.add_flag("out", "", "write the full results record (JSON) here");
  cli.add_flag("trace-dir", "isbench-traces",
               "directory for the Chrome trace JSON of the traced run");
  cli.add_flag("workdir", "isbench-work",
               "scratch directory for packs and shm rings");
  cli.add_flag("commit", "unknown", "commit id recorded in the host header");
  cli.add_flag("smoke", "0",
               "run all workloads at tiny scale with every check and schema "
               "validation");
  cli.add_flag("schema", "",
               "with --smoke: BENCHMARK.json to check the metric tables against");
  Config c;
  std::string workload, out_path, schema;
  bool smoke = false;
  try {
    if (!cli.parse(argc, argv)) return 0;
    workload = cli.get("workload");
    c.seed = static_cast<std::uint64_t>(cli.get_i64("seed"));
    c.seconds = cli.get_double("seconds");
    c.trace = cli.get_bool("trace");
    c.commit = cli.get("commit");
    c.trace_dir = cli.get("trace-dir");
    c.workdir = std::filesystem::absolute(cli.get("workdir")).string();
    out_path = cli.get("out");
    smoke = cli.get_bool("smoke");
    schema = cli.get("schema");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isbench: %s\n", e.what());
    return 2;
  }
  const WorkloadDef* def = find_workload(workload);
  if (!smoke && def == nullptr) {
    std::fprintf(stderr, "isbench: unknown --workload '%s'\n", workload.c_str());
    return 2;
  }

  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, so later runs would reuse the previous run's heap pages and both
  // their page-fault cost and their VmHWM would depend on run order. Fixed,
  // every run allocates its model like a fresh process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    std::filesystem::create_directories(c.workdir);
    // Pinned workers: on a 4-vCPU VM, ten seeds of a 3-thread news20 ×4 run
    // spread 0.16-0.21 (IQR over median) unpinned and 0.10 pinned.
    const auto ctx = std::make_shared<core::ExecutionContext>(
        kThreads, util::ThreadPool::Options{.pin_cpus = true});
    const double timer_ns = calibrate_timer_ns();
    if (smoke) return run_smoke(c, ctx, timer_ns, schema);

    const bool rss_reset = reset_peak_rss();
    const std::string host = host_json(c, timer_ns, rss_reset);
    std::printf("host: %s\n", host.c_str());
    std::fflush(stdout);
    const Outcome o = run_workload(*def, c, ctx, timer_ns);
    std::printf("workload %s: %zu rows, dim %zu, %zu nnz, %zu epochs, "
                "target RMSE %.6f, %zu A/B pairs\n",
                def->name, o.rows, o.dim, o.nnz, o.epochs, o.target_rmse,
                o.pairs);
    print_metrics(o.e2e, kEndToEnd);
    if (c.trace) print_metrics(o.layers, kPerLayer);
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << record_json(*def, c, o, host);
      if (!out) throw std::runtime_error("cannot write " + out_path);
    }
    std::printf("%s\n", c.trace ? result_line(o, o.layers, kPerLayer).c_str()
                                : result_line(o, o.e2e, kEndToEnd).c_str());
    return o.ledger.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isbench: %s\n", e.what());
    return 1;
  }
}
