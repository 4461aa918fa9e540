// End-to-end solver throughput: the first entry in the perf trajectory.
//
// The paper's headline claim is that importance sampling makes asynchronous
// SGD *faster to a target loss*, so the number this reproduction lives or
// dies on is steady-state samples/sec of the actual solver hot loops — not
// just the micro kernels. This harness runs the four core solvers
// (sgd / is_sgd / asgd / is_asgd, the async ones serial + multi-threaded)
// end to end on a synthetic paper workload and reports, per run:
//
//   * samples/sec, total        — epochs·n / training wall-clock,
//   * samples/sec, steady state — epochs 2..E only, so one-time warmup
//     (page faults, pool spin-up remnants, cold caches) never pollutes the
//     number the trajectory tracks,
//   * time-to-target-loss       — first wall-clock crossing of an RMSE
//     target (setup included, the paper's accounting), where the target is
//     derived in-run from the serial SGD reference so it is meaningful at
//     every --scale.
//
// Everything lands in BENCH_solvers.json (machine-readable, CI artifact).
//
// Every run row records the active kernel backend and the NUMA placement
// that served it (flat vs striped, plus the populated node count), so the
// perf trajectory can tell a dispatch change from a placement change.
// --baseline files written before these columns existed still gate: the
// matcher falls back to the (solver, threads) key when the baseline row
// carries no backend.
//
// Usage:
//   end_to_end [--out FILE] [--check] [--dataset news20] [--scale 1.0]
//              [--epochs 10] [--threads 4] [--seed 7] [--repeats 1]
//              [--backend scalar|avx2|avx512] [--numa auto|on|off]
//     --check : regression gate for CI —
//               (1) every solver must reach the SGD-derived RMSE target
//                   (exact: catches correctness/convergence breakage),
//               (2) IS solvers must hold ≥ kIsFloor × their uniform
//                   counterpart's steady-state throughput ("IS adds no
//                   per-iteration cost", §1.3 — loose so scheduler noise on
//                   shared runners cannot flake the job),
//               (3) with --baseline FILE, steady throughput per run must
//                   hold ≥ kBaselineFloor × the same run in a prior
//                   BENCH_solvers.json. A missing/unreadable baseline is a
//                   hard, clearly-reported failure — the gate never
//                   silently passes because no artifact was downloaded.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/execution.hpp"
#include "core/numa.hpp"
#include "core/trainer.hpp"
#include "data/paper_datasets.hpp"
#include "objectives/logistic.hpp"
#include "solvers/options.hpp"
#include "sparse/dispatch.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

using namespace isasgd;

/// Steady-state throughput floor an IS solver must hold against its uniform
/// counterpart (same thread count). An alias draw costs about 13 ns, 3–4% of
/// a step on the url analog's 12-nonzero rows (docs/PERF.md), less on
/// longer rows. Anything under this floor means the sampling layer
/// regressed structurally, not noisily.
constexpr double kIsFloor = 0.5;

/// Steady-throughput floor against a --baseline file's matching run. Looser
/// than the IS-vs-uniform gate: cross-CI-run comparisons see different
/// machine load, so only halvings are treated as structural regressions.
constexpr double kBaselineFloor = 0.5;

struct RunResult {
  std::string solver;
  std::size_t threads = 1;
  std::string backend;    // active kernel backend during the run
  std::string placement;  // "flat" or "striped" model placement
  std::size_t numa_nodes = 1;
  double setup_seconds = 0;
  double train_seconds = 0;
  double samples_per_sec = 0;         // all epochs
  double steady_samples_per_sec = 0;  // epochs 2..E
  double time_to_target = 0;          // NaN when the target is never reached
  double final_rmse = 0;
  double best_error_rate = 0;
};

/// Runs `name` `repeats` times and keeps the fastest-steady-state repeat's
/// trace (timing noise only ever slows a run down, so max-over-repeats
/// estimates the machine's true rate). All reported numbers — throughput,
/// time-to-target, final loss — come from that one trace, so the JSON row
/// is internally consistent. `target_rmse` may be NaN (reference run); the
/// caller can recompute time_to_target from the returned trace once the
/// target is known.
RunResult measure(const core::Trainer& trainer, const std::string& name,
                  solvers::SolverOptions options, std::size_t threads,
                  std::size_t n, double target_rmse, std::size_t repeats,
                  solvers::Trace* best_trace_out = nullptr) {
  options.threads = threads;
  RunResult best;
  solvers::Trace best_trace;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, repeats); ++rep) {
    solvers::Trace trace = trainer.train(name, options);
    RunResult r;
    r.solver = name;
    r.threads = threads;
    r.setup_seconds = trace.setup_seconds;
    r.train_seconds = trace.train_seconds;
    const double total_samples =
        static_cast<double>(n) * static_cast<double>(options.epochs);
    r.samples_per_sec =
        trace.train_seconds > 0 ? total_samples / trace.train_seconds : 0;
    // Steady state: drop epoch 1 (points[0] is the epoch-0 initial model).
    if (trace.points.size() >= 3) {
      const double t1 = trace.points[1].seconds;
      const double tE = trace.points.back().seconds;
      const double steady_samples =
          static_cast<double>(n) *
          static_cast<double>(trace.points.size() - 2);
      r.steady_samples_per_sec = tE > t1 ? steady_samples / (tE - t1) : 0;
    }
    r.time_to_target = trace.time_to_rmse(target_rmse, /*include_setup=*/true);
    r.final_rmse = trace.points.back().rmse;
    r.best_error_rate = trace.best_error_rate();
    if (rep == 0 || r.steady_samples_per_sec > best.steady_samples_per_sec) {
      best = r;
      best_trace = std::move(trace);
    }
  }
  if (best_trace_out) *best_trace_out = std::move(best_trace);
  return best;
}

/// Prints one finalized table row (after any target backfill, so the
/// human-readable log never shows a placeholder crossing time).
void print_row(const RunResult& r) {
  std::printf(
      "%-10s t=%zu  %10.0f samples/s (steady %10.0f)  to-target %.3fs  "
      "rmse %.4f\n",
      r.solver.c_str(), r.threads, r.samples_per_sec,
      r.steady_samples_per_sec, r.time_to_target, r.final_rmse);
  std::fflush(stdout);
}

void write_json(const std::string& path, const data::PaperDatasetConfig& cfg,
                double target_rmse, std::size_t epochs,
                const std::vector<RunResult>& results) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"workload\": {\"dataset\": \"" << cfg.name
      << "\", \"rows\": " << cfg.spec.rows << ", \"dim\": " << cfg.spec.dim
      << ", \"mean_row_nnz\": " << cfg.spec.mean_row_nnz
      << ", \"epochs\": " << epochs << ", \"target_rmse\": " << target_rmse
      << "},\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"solver\": \"" << r.solver << "\", \"threads\": " << r.threads
        << ", \"backend\": \"" << r.backend << "\", \"placement\": \""
        << r.placement << "\", \"numa_nodes\": " << r.numa_nodes
        << ", \"samples_per_sec\": " << r.samples_per_sec
        << ", \"steady_samples_per_sec\": " << r.steady_samples_per_sec
        << ", \"time_to_target_s\": "
        << (std::isfinite(r.time_to_target)
                ? std::to_string(r.time_to_target)
                : std::string("null"))
        << ", \"setup_seconds\": " << r.setup_seconds
        << ", \"train_seconds\": " << r.train_seconds
        << ", \"final_rmse\": " << r.final_rmse
        << ", \"best_error_rate\": " << r.best_error_rate << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

const RunResult* find(const std::vector<RunResult>& results,
                      const std::string& solver, std::size_t threads) {
  for (const RunResult& r : results) {
    if (r.solver == solver && r.threads == threads) return &r;
  }
  return nullptr;
}

int check_gate(const std::vector<RunResult>& results, std::size_t threads) {
  int failures = 0;
  for (const RunResult& r : results) {
    if (!std::isfinite(r.time_to_target)) {
      util::log_error() << "GATE: " << r.solver << " t=" << r.threads
                        << " never reached the target RMSE";
      ++failures;
    }
  }
  const struct {
    const char* is;
    const char* uniform;
    std::size_t threads;
  } pairs[] = {{"is_sgd", "sgd", 1},
               {"is_asgd", "asgd", 1},
               {"is_asgd", "asgd", threads}};
  for (const auto& p : pairs) {
    const RunResult* is = find(results, p.is, p.threads);
    const RunResult* uni = find(results, p.uniform, p.threads);
    if (!is || !uni || uni->steady_samples_per_sec <= 0) continue;
    const double ratio =
        is->steady_samples_per_sec / uni->steady_samples_per_sec;
    if (ratio < kIsFloor) {
      util::log_error() << "GATE: " << p.is << " t=" << p.threads
                        << " holds only " << ratio << "x of " << p.uniform
                        << "'s steady throughput (floor " << kIsFloor << ")";
      ++failures;
    }
  }
  return failures;
}

/// Baseline row key: (solver, threads, backend). Rows written before the
/// backend column existed carry an empty backend — the lookup falls back to
/// that so old artifacts keep gating new binaries.
using BaselineKey = std::tuple<std::string, std::size_t, std::string>;

/// Minimal reader for the JSON this binary writes: extracts
/// BaselineKey → steady_samples_per_sec from each run object. Only
/// has to understand its own output format, so plain string scanning is
/// enough — no JSON dependency.
std::map<BaselineKey, double> read_baseline(std::istream& in) {
  std::map<BaselineKey, double> baseline;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t solver_at = line.find("\"solver\": \"");
    if (solver_at == std::string::npos) continue;
    const std::size_t name_begin = solver_at + 11;
    const std::size_t name_end = line.find('"', name_begin);
    const std::size_t threads_at = line.find("\"threads\": ");
    const std::size_t steady_at = line.find("\"steady_samples_per_sec\": ");
    if (name_end == std::string::npos || threads_at == std::string::npos ||
        steady_at == std::string::npos) {
      continue;
    }
    const std::string solver = line.substr(name_begin, name_end - name_begin);
    const auto threads =
        static_cast<std::size_t>(std::stoul(line.substr(threads_at + 11)));
    const double steady = std::stod(line.substr(steady_at + 26));
    std::string backend;  // empty for pre-dispatch baselines
    const std::size_t backend_at = line.find("\"backend\": \"");
    if (backend_at != std::string::npos) {
      const std::size_t b_begin = backend_at + 12;
      const std::size_t b_end = line.find('"', b_begin);
      if (b_end != std::string::npos) {
        backend = line.substr(b_begin, b_end - b_begin);
      }
    }
    baseline[{solver, threads, backend}] = steady;
  }
  return baseline;
}

/// The --baseline gate. A missing or empty baseline file fails loudly (the
/// perf trajectory must never look green because the prior artifact was
/// absent); a run missing *from* the baseline is reported but tolerated, so
/// adding a new solver configuration does not require hand-editing old
/// artifacts.
int check_baseline(const std::string& path,
                   const std::vector<RunResult>& results) {
  std::ifstream in(path);
  if (!in) {
    util::log_error()
        << "GATE: baseline file '" << path
        << "' is absent or unreadable — cannot gate the perf trajectory. "
        << "Generate one on a known-good build with `end_to_end --out "
        << path << "` (or download the prior CI artifact) and re-run.";
    return 1;
  }
  const auto baseline = read_baseline(in);
  if (baseline.empty()) {
    util::log_error() << "GATE: baseline file '" << path
                      << "' contains no runs (wrong or corrupt file?)";
    return 1;
  }
  int failures = 0;
  for (const RunResult& r : results) {
    // Exact backend match first; fall back to a backend-less (pre-dispatch)
    // baseline row so old artifacts still gate.
    auto it = baseline.find({r.solver, r.threads, r.backend});
    if (it == baseline.end()) {
      it = baseline.find({r.solver, r.threads, std::string()});
    }
    if (it == baseline.end()) {
      util::log_warn() << "baseline '" << path << "' has no entry for "
                       << r.solver << " t=" << r.threads << " backend="
                       << r.backend << "; skipping";
      continue;
    }
    if (it->second <= 0) continue;
    const double ratio = r.steady_samples_per_sec / it->second;
    if (ratio < kBaselineFloor) {
      util::log_error() << "GATE: " << r.solver << " t=" << r.threads
                        << " steady throughput is " << ratio
                        << "x its baseline (" << r.steady_samples_per_sec
                        << " vs " << it->second << " samples/s, floor "
                        << kBaselineFloor << ")";
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("end_to_end",
                      "End-to-end solver throughput + time-to-target-loss "
                      "(BENCH_solvers.json)");
  cli.add_flag("out", "BENCH_solvers.json", "output JSON path");
  cli.add_flag("check", "false", "regression gate (CI)");
  cli.add_flag("baseline", "",
               "prior BENCH_solvers.json to gate steady throughput against "
               "(with --check; absent file = hard failure)");
  cli.add_flag("dataset", "news20", "paper workload analog to run");
  cli.add_flag("scale", "1.0", "dataset scale factor");
  cli.add_flag("epochs", "10", "epochs per run");
  cli.add_flag("threads", "4", "async worker count for the parallel runs");
  cli.add_flag("seed", "7", "base RNG seed");
  cli.add_flag("repeats", "1",
               "timing repeats per configuration (fastest steady-state wins)");
  cli.add_flag("backend", "",
               "pin the kernel backend (scalar|avx2|avx512; default: runtime "
               "dispatch, honours ISASGD_KERNEL_BACKEND)");
  cli.add_flag("numa", "auto",
               "model placement mode: auto (stripe only on multi-node "
               "hosts), on, off");
  if (!cli.parse(argc, argv)) return 0;

  namespace k = sparse::kernels;
  if (!cli.get("backend").empty()) {
    try {
      if (!k::set_backend(k::backend_from_name(cli.get("backend")))) {
        util::log_error() << "backend '" << cli.get("backend")
                          << "' is not available on this host";
        return 2;
      }
    } catch (const std::invalid_argument& e) {
      util::log_error() << e.what();
      return 2;
    }
  }
  core::NumaOptions numa_options;
  {
    const std::string mode = cli.get("numa");
    if (mode == "on") {
      numa_options.mode = core::NumaOptions::Mode::kOn;
    } else if (mode == "off") {
      numa_options.mode = core::NumaOptions::Mode::kOff;
    } else if (mode != "auto") {
      util::log_error() << "unknown --numa mode '" << mode
                        << "' (auto|on|off)";
      return 2;
    }
  }

  const auto cfg = data::paper_dataset_config(
      data::paper_dataset_from_name(cli.get("dataset")),
      cli.get_double("scale"));
  std::printf("generating %s (rows=%zu dim=%zu nnz/row=%.0f)...\n",
              cfg.name.c_str(), cfg.spec.rows, cfg.spec.dim,
              cfg.spec.mean_row_nnz);
  const sparse::CsrMatrix data = data::generate(cfg.spec);
  const objectives::LogisticLoss objective;

  const std::size_t threads =
      static_cast<std::size_t>(std::max(1, cli.get_int("threads")));
  const std::size_t epochs =
      static_cast<std::size_t>(std::max(2, cli.get_int("epochs")));
  const std::size_t repeats =
      static_cast<std::size_t>(std::max(1, cli.get_int("repeats")));

  solvers::SolverOptions opt;
  opt.step_size = cfg.lambda;
  opt.epochs = epochs;
  opt.seed = static_cast<std::uint64_t>(cli.get_i64("seed"));
  opt.reg = objectives::Regularization::l1(1e-8);

  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(data)
                                    .objective(objective)
                                    .regularization(opt.reg)
                                    .numa(numa_options)
                                    .build();

  const core::NumaPolicy numa_probe{numa_options, core::NumaTopology::detect()};
  const std::string backend_name = k::backend_name(k::active_backend());
  const std::string placement = numa_probe.active() ? "striped" : "flat";
  std::printf("kernel backend: %s | placement: %s (%zu node%s)\n",
              backend_name.c_str(), placement.c_str(),
              numa_probe.topology().node_count(),
              numa_probe.topology().node_count() == 1 ? "" : "s");

  // Serial SGD is the reference: its final loss under the same epoch budget
  // defines the target every other solver must reach. The 1.5% slack keeps
  // the gate off the razor's edge of run-to-run stochastic differences.
  solvers::Trace sgd_trace;
  RunResult sgd = measure(trainer, "sgd", opt, 1, data.rows(),
                          /*target placeholder*/ 0.0, repeats, &sgd_trace);
  const double target_rmse = sgd.final_rmse * 1.015;
  std::printf("target RMSE (sgd final x 1.015): %.4f\n", target_rmse);
  // The reference's own crossing, from the same kept trace.
  sgd.time_to_target = sgd_trace.time_to_rmse(target_rmse, true);

  std::vector<RunResult> results;
  results.push_back(sgd);
  print_row(sgd);
  const struct {
    const char* solver;
    std::size_t threads;
  } runs[] = {{"is_sgd", 1}, {"asgd", 1},      {"is_asgd", 1},
              {"asgd", threads}, {"is_asgd", threads}};
  for (const auto& run : runs) {
    results.push_back(measure(trainer, run.solver, opt, run.threads,
                              data.rows(), target_rmse, repeats));
    print_row(results.back());
  }
  for (RunResult& r : results) {
    r.backend = backend_name;
    r.placement = placement;
    r.numa_nodes = numa_probe.topology().node_count();
  }

  write_json(cli.get("out"), cfg, target_rmse, epochs, results);

  if (cli.get_bool("check")) {
    int failures = check_gate(results, threads);
    if (!cli.get("baseline").empty()) {
      failures += check_baseline(cli.get("baseline"), results);
    }
    if (failures) return 1;
    std::cout << "all solvers reached the target; IS throughput within "
              << kIsFloor << "x of uniform or better\n";
  }
  return 0;
}
