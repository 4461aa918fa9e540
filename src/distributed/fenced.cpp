#include "distributed/fenced.hpp"

#include <algorithm>
#include <optional>

#include "distributed/recovery.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/schedule.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace isasgd::distributed {

namespace fenced {

Setup make_ps_setup(const sparse::CsrMatrix& data,
                    const objectives::Objective& objective,
                    const solvers::SolverOptions& options, std::size_t nodes,
                    bool use_importance) {
  Setup setup;
  setup.k = std::min(nodes, data.rows());
  setup.importance =
      solvers::detail::importance_weights(data, objective, options);
  partition::PartitionOptions popt = options.partition;
  if (!use_importance) popt.strategy = partition::Strategy::kShuffle;
  popt.shuffle_seed = options.seed ^ 0xd157;
  setup.plan = std::make_unique<partition::PartitionPlan>(setup.importance,
                                                          setup.k, popt);
  setup.walks.reserve(setup.k);
  for (std::size_t a = 0; a < setup.k; ++a) {
    setup.walks.emplace_back(data, setup.plan->shard(a), use_importance,
                             util::derive_seed(options.seed, 0xc0de + a));
  }
  return setup;
}

Setup make_ps_setup(const data::DataSource& source,
                    const objectives::Objective& objective,
                    const solvers::SolverOptions& options, std::size_t nodes,
                    bool use_importance) {
  const std::size_t shards = source.shard_count();
  if (shards <= 1) {
    return make_ps_setup(source.materialize(), objective, options, nodes,
                         use_importance);
  }
  Setup setup;
  setup.k = std::min(nodes, shards);
  setup.shard_importance.resize(shards);
  setup.shard_phi.resize(shards);
  const data::RowStats* stats = source.row_stats();
  const bool from_stats =
      stats != nullptr && solvers::detail::stats_feed_importance(options);
  for (std::size_t s = 0; s < shards; ++s) {
    if (from_stats) {
      // Sidecar-fed: importance from pack-time row stats, in shard row
      // order — bit-identical to the loaded pass, with zero shard loads.
      setup.shard_importance[s] =
          solvers::detail::importance_weights_from_stats(
              *stats, source.shard_begin(s), source.shard_rows(s), objective,
              options);
    } else {
      if (s + 1 < shards) source.prefetch(s + 1);
      setup.shard_importance[s] = solvers::detail::importance_weights(
          *source.shard(s)->matrix, objective, options);
    }
    double total = 0;
    for (const double v : setup.shard_importance[s]) total += v;
    setup.shard_phi[s] = total;
  }
  partition::PartitionOptions popt = options.partition;
  if (!use_importance) popt.strategy = partition::Strategy::kShuffle;
  popt.shuffle_seed = options.seed ^ 0xd157;
  setup.plan = std::make_unique<partition::PartitionPlan>(setup.shard_phi,
                                                          setup.k, popt);
  setup.walks.reserve(setup.k);
  for (std::size_t a = 0; a < setup.k; ++a) {
    setup.walks.emplace_back(source, setup.plan->shard(a).rows,
                             setup.shard_importance, setup.shard_phi,
                             use_importance,
                             util::derive_seed(options.seed, 0xc0de + a));
  }
  return setup;
}

Setup make_allreduce_setup(const sparse::CsrMatrix& data,
                           const objectives::Objective& objective,
                           const solvers::SolverOptions& options,
                           std::size_t nodes, bool use_importance) {
  Setup setup;
  setup.k = std::min(nodes, data.rows());
  setup.importance =
      solvers::detail::importance_weights(data, objective, options);
  partition::PartitionOptions popt = options.partition;
  if (!use_importance) popt.strategy = partition::Strategy::kShuffle;
  popt.shuffle_seed = options.seed ^ 0xa11d;
  setup.plan = std::make_unique<partition::PartitionPlan>(setup.importance,
                                                          setup.k, popt);
  setup.walks.reserve(setup.k);
  for (std::size_t a = 0; a < setup.k; ++a) {
    setup.walks.emplace_back(data, setup.plan->shard(a), use_importance,
                             util::derive_seed(options.seed, 0xa22d + a));
  }
  return setup;
}

}  // namespace fenced

/// Fenced PS epoch loop: per round one step per live executor in rank
/// order, applied immediately. Simulated time is the fully serialized
/// per-step cost — the fenced protocol serializes every step through the
/// server, so costs add rather than overlap (this schedule is the
/// determinism anchor, not the performance model; the event-clock engine
/// remains the latter).
///
/// This loop is also the crash-recovery mirror of the real process backend:
/// the CrashRoster kills the scripted executor at its round-robin turn after
/// the scripted number of draws — exactly when the real server, whose
/// liveness deadline expires at the dead rank's slot, stops applying its
/// pushes — so a clean crash produces bit-identical models in both worlds.
solvers::Trace run_param_server_fenced(const data::DataSource& source,
                                       const objectives::Objective& objective,
                                       const solvers::SolverOptions& options,
                                       const ClusterSpec& spec,
                                       bool use_importance,
                                       const solvers::EvalFn& eval,
                                       ParamServerReport* report,
                                       solvers::TrainingObserver* observer) {
  spec.validate();
  util::Stopwatch sw;
  fenced::Setup setup = fenced::make_ps_setup(source, objective, options,
                                              spec.nodes, use_importance);
  const std::size_t k = setup.k;
  CrashRoster roster(spec.fault, spec.recovery.policy, setup.walk_quotas(),
                     /*replayable_walks=*/setup.shard_phi.empty());
  std::vector<double> w(source.dim(), 0.0);
  solvers::TraceRecorder recorder(use_importance ? "ps_is_asgd" : "ps_asgd", k,
                                  options.step_size, eval, observer);
  recorder.mark_simulated_time();
  recorder.add_setup_seconds(sw.seconds());
  recorder.record(0, 0.0, w);

  double sim_time = 0;
  std::size_t applied = 0, bytes = 0;
  for (std::size_t epoch = 1;
       epoch <= options.epochs && !recorder.stop_requested(); ++epoch) {
    roster.begin_epoch(epoch);
    const double lambda = solvers::epoch_step(options, epoch);
    for (NodeWalk& walk : setup.walks) walk.begin_epoch();
    while (roster.pending() > 0) {
      for (std::size_t e = 0; e < k; ++e) {
        const std::optional<std::uint32_t> walk = roster.take(e);
        if (!walk) continue;
        const NodeWalk::Sample s = setup.walks[*walk].next();
        const auto x = s.matrix->row(s.row);
        const auto idx = x.indices();
        const auto val = x.values();
        double margin = 0;
        for (std::size_t j = 0; j < idx.size(); ++j) {
          margin += w[idx[j]] * val[j];
        }
        const double gradient_scale =
            objective.gradient_scale(margin, s.matrix->label(s.row));
        fenced::apply_push(idx, val, gradient_scale, lambda * s.weight,
                           options.reg, w);
        const std::size_t nnz = idx.size();
        ++applied;
        bytes += nnz * spec.bytes_per_nnz;
        sim_time += spec.node_compute_seconds(e, nnz) +
                    spec.sparse_push_seconds(nnz) +
                    spec.apply_seconds_per_nnz * static_cast<double>(nnz);
      }
    }
    roster.end_epoch();
    recorder.record(epoch, sim_time, w);
  }

  if (report || observer) {
    ParamServerReport local;
    local.mean_staleness_updates = 0;  // fenced: applies are immediate
    local.messages = applied;
    local.bytes_sent = bytes;
    local.simulated_seconds = sim_time;
    local.phi_imbalance = setup.plan->imbalance();
    local.applied_strategy = setup.plan->applied_strategy();
    local.crash_events = roster.crash_events();
    local.rejoin_events = roster.rejoin_events();
    if (report) *report = local;
    if (observer) observer->on_diagnostics(local);
  }
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(sim_time);
}

}  // namespace isasgd::distributed
