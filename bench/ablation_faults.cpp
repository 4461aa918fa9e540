// Fault-recovery ablation: what a worker crash costs, and what the recovery
// policy buys back, on the event-clock parameter-server simulator.
//
// A no-fault run fixes the target loss (its final full-data objective plus a
// small margin). Each scenario × policy cell then reruns the same training
// with a scripted FaultScenario and reports the *time to recover* — the
// first simulated second at which the full-data objective is back at or
// under the target. A cell that never gets there is "not recovered"
// (time-to-recover = ∞ for the --check comparison).
//
//   scenarios: crash (node dies mid-epoch, never returns)
//              crash_rejoin (a replacement is admitted a few epochs later)
//   policies:  none    (dead rank's shard simply stops contributing)
//              reshard (survivors adopt the dead rank's walk at the fence)
//
//   build/bench/ablation_faults [--check] [--out FILE]
//     --out FILE : write the cells as JSON (release CI uploads
//                  BENCH_faults.json)
//     --check    : exit non-zero unless recovery pays in every scenario —
//                  reshard must reach the target, and strictly sooner than
//                  the no-recovery policy does (if that ever recovers).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/data_source.hpp"
#include "data/synthetic.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "distributed/recovery.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/logistic.hpp"

namespace {

using namespace isasgd;

struct Cell {
  std::string scenario;
  std::string policy;
  bool recovered = false;
  double recover_seconds = std::numeric_limits<double>::infinity();
  double final_objective = 0;
  std::uint64_t crash_events = 0;
  std::uint64_t rejoin_events = 0;
};

double time_to_target(const solvers::Trace& trace, double target) {
  for (const solvers::TracePoint& p : trace.points) {
    if (p.epoch > 0 && p.objective <= target) return p.seconds;
  }
  return std::numeric_limits<double>::infinity();
}

void write_json(const std::string& path, double baseline_objective,
                double target, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"baseline_final_objective\": " << baseline_objective
      << ",\n  \"target_objective\": " << target << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"scenario\": \"" << c.scenario << "\", \"policy\": \""
        << c.policy << "\", \"recovered\": " << (c.recovered ? "true" : "false")
        << ", \"recover_sim_seconds\": "
        << (c.recovered ? c.recover_seconds : -1.0)
        << ", \"final_objective\": " << c.final_objective
        << ", \"crash_events\": " << c.crash_events
        << ", \"rejoin_events\": " << c.rejoin_events << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

/// The --check gate: in every scenario the resharding policy must actually
/// recover, and must beat leaving the dead rank's shard on the floor.
int check_recovery(const std::vector<Cell>& cells) {
  int failures = 0;
  for (const std::string scenario : {"crash", "crash_rejoin"}) {
    const Cell* none = nullptr;
    const Cell* reshard = nullptr;
    for (const Cell& c : cells) {
      if (c.scenario != scenario) continue;
      (c.policy == "reshard" ? reshard : none) = &c;
    }
    if (none == nullptr || reshard == nullptr) {
      std::fprintf(stderr, "CHECK FAILED: scenario %s is missing cells\n",
                   scenario.c_str());
      ++failures;
      continue;
    }
    if (!reshard->recovered) {
      std::fprintf(stderr,
                   "CHECK FAILED: %s/reshard never reached the target "
                   "(final objective %.6g)\n",
                   scenario.c_str(), reshard->final_objective);
      ++failures;
      continue;
    }
    // none's time is +inf when it never recovers, so this comparison is the
    // whole gate: recovery-enabled strictly beats no-recovery.
    if (!(reshard->recover_seconds < none->recover_seconds)) {
      std::fprintf(stderr,
                   "CHECK FAILED: %s: reshard recovered at %.4g sim-s but "
                   "no-recovery was not beaten (%.4g sim-s)\n",
                   scenario.c_str(), reshard->recover_seconds,
                   none->recover_seconds);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("ablation_faults",
                      "Crash/rejoin scenarios × recovery policies on the "
                      "event-clock parameter server: time to recover the "
                      "no-fault target loss");
  cli.add_flag("rows", "2000", "dataset rows");
  cli.add_flag("dim", "500", "dataset dimension");
  cli.add_flag("nodes", "8", "cluster size (one rank crashes)");
  cli.add_flag("epochs", "12", "epoch budget");
  cli.add_flag("crash-epoch", "3", "epoch the scripted crash fires in");
  cli.add_flag("rejoin-epoch", "7",
               "epoch the replacement joins (crash_rejoin scenario)");
  cli.add_flag("margin", "0.01",
               "target = no-fault final objective * (1 + margin)");
  cli.add_flag("out", "", "also write the cells as JSON to this file");
  cli.add_flag("check", "false",
               "fail unless reshard recovers and beats no-recovery");
  if (!cli.parse(argc, argv)) return 0;

  data::SyntheticSpec dspec;
  dspec.rows = static_cast<std::size_t>(cli.get_int("rows"));
  dspec.dim = static_cast<std::size_t>(cli.get_int("dim"));
  dspec.mean_row_nnz = 10;
  dspec.target_psi = 0.8;
  dspec.label_noise = 0.02;
  dspec.seed = 41;
  const auto data = data::generate(dspec);
  objectives::LogisticLoss loss;
  metrics::Evaluator evaluator(data, loss, objectives::Regularization::none(),
                               8);
  solvers::SolverOptions opt;
  opt.epochs = static_cast<std::size_t>(cli.get_int("epochs"));
  opt.step_size = 0.5;
  opt.seed = 7;

  distributed::ClusterSpec base;
  base.nodes = static_cast<std::size_t>(cli.get_int("nodes"));

  // ---- Baseline: no faults fixes the target ----
  const solvers::Trace baseline = distributed::run_param_server(
      data::InMemorySource(data), loss, opt, base, /*use_importance=*/true,
      evaluator.as_fn());
  const double baseline_objective = baseline.points.back().objective;
  const double target =
      baseline_objective * (1.0 + cli.get_double("margin"));
  std::printf("no-fault final objective %.6g, recovery target %.6g\n",
              baseline_objective, target);

  const std::size_t crash_epoch =
      static_cast<std::size_t>(cli.get_int("crash-epoch"));
  const std::size_t rejoin_epoch =
      static_cast<std::size_t>(cli.get_int("rejoin-epoch"));

  struct ScenarioDef {
    const char* name;
    std::size_t rejoin;
  };
  const ScenarioDef scenarios[] = {{"crash", 0},
                                   {"crash_rejoin", rejoin_epoch}};
  const distributed::RecoveryPolicy policies[] = {
      distributed::RecoveryPolicy::kNone,
      distributed::RecoveryPolicy::kReshard};

  std::vector<Cell> cells;
  util::TablePrinter table({"scenario", "policy", "recovered", "recover_sim_s",
                            "final_obj", "crashes", "rejoins"});
  for (const ScenarioDef& sc : scenarios) {
    for (const distributed::RecoveryPolicy policy : policies) {
      distributed::ClusterSpec spec = base;
      spec.fault.crash_node = spec.nodes - 1;
      spec.fault.crash_epoch = crash_epoch;
      spec.fault.crash_fraction = 0.5;
      spec.fault.rejoin_epoch = sc.rejoin;
      spec.recovery.policy = policy;
      distributed::ParamServerReport report;
      const solvers::Trace trace = distributed::run_param_server(
          data::InMemorySource(data), loss, opt, spec, /*use_importance=*/true,
          evaluator.as_fn(), &report);
      Cell cell;
      cell.scenario = sc.name;
      cell.policy = distributed::recovery_policy_name(policy);
      cell.recover_seconds = time_to_target(trace, target);
      cell.recovered = std::isfinite(cell.recover_seconds);
      cell.final_objective = trace.points.back().objective;
      cell.crash_events = report.crash_events;
      cell.rejoin_events = report.rejoin_events;
      cells.push_back(cell);
      table.add_row_values(cell.scenario, cell.policy,
                           cell.recovered ? "yes" : "no",
                           cell.recovered ? cell.recover_seconds : -1.0,
                           cell.final_objective,
                           static_cast<double>(cell.crash_events),
                           static_cast<double>(cell.rejoin_events));
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: reshard recovers the target in both scenarios (the "
      "survivors absorb the dead rank's walk at the next fence); none only "
      "recovers once a replacement rejoins, later than reshard — and never "
      "in the plain crash scenario, where the lost shard's data is simply "
      "absent from every remaining epoch.\n");

  if (!cli.get("out").empty()) {
    write_json(cli.get("out"), baseline_objective, target, cells);
  }
  if (cli.get_bool("check")) {
    const int failures = check_recovery(cells);
    if (failures) return 1;
    std::printf(
        "recovery sanity holds: reshard reaches the target and beats "
        "no-recovery in both scenarios\n");
  }
  return 0;
}
