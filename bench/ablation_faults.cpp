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
//     --out FILE : write the bench record, one row per cell (CI uploads
//                  BENCH_faults.json)
//     --check    : exit non-zero unless recovery pays in every scenario —
//                  reshard must reach the target, and strictly sooner than
//                  the no-recovery policy does (if that ever recovers).
#include <cmath>
#include <cstdio>
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

double time_to_target(const solvers::Trace& trace, double target) {
  for (const solvers::TracePoint& p : trace.points) {
    if (p.epoch > 0 && p.objective <= target) return p.seconds;
  }
  return std::numeric_limits<double>::infinity();
}

/// The --check gate over the record's cells: in every scenario the
/// resharding policy must actually recover, and must beat leaving the dead
/// rank's shard on the floor.
void check_recovery(util::BenchRecord& rec) {
  // +inf for a cell that never recovered (written to the file as null).
  const auto seconds = [](const util::RecordFields& cell) {
    return *util::find_field(cell, "recover_sim_seconds")->number();
  };
  for (const std::string scenario : {"crash", "crash_rejoin"}) {
    const util::RecordFields* none =
        rec.find_row({{"scenario", scenario}, {"policy", "none"}});
    const util::RecordFields* reshard =
        rec.find_row({{"scenario", scenario}, {"policy", "reshard"}});
    rec.check(scenario + " has both cells", none && reshard,
              "none and reshard");
    if (none == nullptr || reshard == nullptr) continue;
    const bool recovered = std::isfinite(seconds(*reshard));
    rec.check(scenario + ": reshard recovers", recovered, "final objective ",
              *util::find_field(*reshard, "final_objective")->number());
    if (!recovered) continue;
    // none's time is +inf when it never recovers, so this comparison is the
    // whole gate: recovery-enabled strictly beats no-recovery.
    rec.check(scenario + ": reshard beats none",
              seconds(*reshard) < seconds(*none), "reshard recovered at ",
              seconds(*reshard), " sim-s, none at ", seconds(*none), " sim-s");
  }
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
  util::BenchRecord rec{.bench = "ablation_faults"};
  rec.config = {{"rows", dspec.rows},
                {"dim", dspec.dim},
                {"nodes", base.nodes},
                {"epochs", opt.epochs},
                {"crash_epoch", cli.get_int("crash-epoch")},
                {"rejoin_epoch", cli.get_int("rejoin-epoch")},
                {"margin", cli.get_double("margin")},
                {"baseline_final_objective", baseline_objective},
                {"target_objective", target}};

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
      const std::string name = distributed::recovery_policy_name(policy);
      const double seconds = time_to_target(trace, target);
      const bool recovered = std::isfinite(seconds);
      const double objective = trace.points.back().objective;
      rec.rows.push_back({{"scenario", sc.name},
                          {"policy", name},
                          {"recovered", recovered},
                          {"recover_sim_seconds", seconds},
                          {"final_objective", objective},
                          {"crash_events", report.crash_events},
                          {"rejoin_events", report.rejoin_events}});
      table.add_row_values(sc.name, name, recovered ? "yes" : "no",
                           recovered ? seconds : -1.0, objective,
                           static_cast<double>(report.crash_events),
                           static_cast<double>(report.rejoin_events));
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: reshard recovers the target in both scenarios (the "
      "survivors absorb the dead rank's walk at the next fence); none only "
      "recovers once a replacement rejoins, later than reshard — and never "
      "in the plain crash scenario, where the lost shard's data is simply "
      "absent from every remaining epoch.\n");

  if (cli.get_bool("check")) check_recovery(rec);
  return bench::finish(rec, cli.get("out"));
}
