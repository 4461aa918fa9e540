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
// Everything lands in the bench record BENCH_solvers.json (CI artifact;
// docs/PERF.md, *Bench records*).
//
// Every run row records the active kernel backend and the NUMA placement
// that served it (flat vs striped, plus the populated node count), so the
// perf trajectory can tell a dispatch change from a placement change.
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
//                   hold ≥ kBaselineFloor × the run with the same solver,
//                   threads and backend in a prior BENCH_solvers.json. A
//                   missing, unreadable or empty baseline is a hard,
//                   clearly-reported failure — the gate never silently
//                   passes because no artifact was downloaded.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
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
/// time-to-target, final loss — come from that one trace, so the record's
/// row is internally consistent. `target_rmse` may be NaN (reference run); the
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

/// A record row's steady_samples_per_sec; 0 when it has none.
double steady(const util::RecordFields& row) {
  const util::RecordValue* v = util::find_field(row, "steady_samples_per_sec");
  return v ? v->number().value_or(0) : 0;
}

void check_gate(util::BenchRecord& rec, const std::vector<RunResult>& results,
                std::size_t threads) {
  for (const RunResult& r : results) {
    rec.check("target " + r.solver + " t=" + std::to_string(r.threads),
              std::isfinite(r.time_to_target), "time to target ",
              r.time_to_target, " s");
  }
  const struct {
    const char* is;
    const char* uniform;
    std::size_t threads;
  } pairs[] = {{"is_sgd", "sgd", 1},
               {"is_asgd", "asgd", 1},
               {"is_asgd", "asgd", threads}};
  for (const auto& p : pairs) {
    const util::RecordFields* is =
        rec.find_row({{"solver", p.is}, {"threads", p.threads}});
    const util::RecordFields* uni =
        rec.find_row({{"solver", p.uniform}, {"threads", p.threads}});
    if (!is || !uni || steady(*uni) <= 0) continue;
    const double ratio = steady(*is) / steady(*uni);
    rec.check(std::string(p.is) + "/" + p.uniform +
                  " t=" + std::to_string(p.threads),
              ratio >= kIsFloor, "holds ", ratio, "x of ", p.uniform,
              "'s steady throughput (floor ", kIsFloor, ")");
  }
}

/// The --baseline gate. A missing, unreadable or empty baseline file fails
/// loudly (the perf trajectory must never look green because the prior
/// artifact was absent); a run missing *from* the baseline is reported but
/// tolerated, so adding a new solver configuration does not require
/// hand-editing old artifacts.
void check_baseline(util::BenchRecord& rec, const std::string& path,
                    const std::vector<RunResult>& results,
                    const std::string& backend) {
  util::BenchRecord baseline;
  try {
    baseline = util::read_record(path);
  } catch (const util::RecordError& e) {
    rec.check("baseline " + path, false, e.what(),
              " — cannot gate the perf trajectory. Generate one on ",
              "a known-good build with `end_to_end --out ", path,
              "` (or download the prior CI artifact) and re-run.");
    return;
  }
  for (const RunResult& r : results) {
    const util::RecordFields* row = baseline.find_row(
        {{"solver", r.solver}, {"threads", r.threads}, {"backend", backend}});
    if (!row) {
      util::log_warn() << "baseline '" << path << "' has no entry for "
                       << r.solver << " t=" << r.threads << " backend="
                       << backend << "; skipping";
      continue;
    }
    const double base = steady(*row);
    if (base <= 0) continue;
    const double ratio = r.steady_samples_per_sec / base;
    rec.check("baseline " + r.solver + " t=" + std::to_string(r.threads),
              ratio >= kBaselineFloor, "steady throughput is ", ratio,
              "x its baseline (", r.steady_samples_per_sec, " vs ", base,
              " samples/s, floor ", kBaselineFloor, ")");
  }
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
  if (!bench::pin_backend(cli.get("backend"))) return 2;
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

  util::BenchRecord rec{.bench = "end_to_end"};
  rec.config = {{"dataset", cfg.name},
                {"rows", cfg.spec.rows},
                {"dim", cfg.spec.dim},
                {"mean_row_nnz", cfg.spec.mean_row_nnz},
                {"epochs", epochs},
                {"target_rmse", target_rmse}};
  for (const RunResult& r : results) {
    rec.rows.push_back({{"solver", r.solver},
                        {"threads", r.threads},
                        {"backend", backend_name},
                        {"placement", placement},
                        {"numa_nodes", numa_probe.topology().node_count()},
                        {"samples_per_sec", r.samples_per_sec},
                        {"steady_samples_per_sec", r.steady_samples_per_sec},
                        {"time_to_target_s", r.time_to_target},
                        {"setup_seconds", r.setup_seconds},
                        {"train_seconds", r.train_seconds},
                        {"final_rmse", r.final_rmse},
                        {"best_error_rate", r.best_error_rate}});
  }
  if (cli.get_bool("check")) {
    check_gate(rec, results, threads);
    if (!cli.get("baseline").empty()) {
      check_baseline(rec, cli.get("baseline"), results, backend_name);
    }
  }
  return bench::finish(rec, cli.get("out"));
}
