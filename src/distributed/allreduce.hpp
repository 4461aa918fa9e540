// Synchronous data-parallel SGD with ring all-reduce: the dense baseline.
//
// The cluster-scale mirror of the paper's §1.2 argument: a synchronous
// data-parallel round averages the workers' mini-batch gradients with an
// all-reduce, and an all-reduce is a *dense* collective — every round moves
// Θ(d) bytes per node no matter how sparse the individual gradients are
// (once k·b gradients are summed the aggregate is dense-ish anyway, and the
// ring schedule pre-partitions the vector by coordinate range, so sparsity
// cannot be exploited). Exactly like SVRG's dense μ, the cost is
// independent of the per-sample nnz, so on high-dimensional sparse data the
// communication term dwarfs the compute and the async sparse-push server
// wins on simulated wall-clock — while per *update* the synchronous method
// is the lower-variance one. bench/ablation_distributed sweeps d to locate
// the crossover.
#pragma once

#include "data/data_source.hpp"
#include "distributed/cluster.hpp"
#include "objectives/objective.hpp"
#include "solvers/observer.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"

namespace isasgd::distributed {

/// Diagnostics of one all-reduce run.
struct AllreduceReport {
  /// Synchronous rounds executed (epochs·⌈n/(k·b)⌉).
  std::size_t rounds = 0;
  /// Dense bytes moved per node per round (the 2(k−1)/k·d·8 ring volume).
  double bytes_per_node_per_round = 0;
  /// Simulated seconds at the end of training (wall clock on kProcess).
  double simulated_seconds = 0;
  /// Fraction of simulated time spent in communication (0 on kProcess).
  double comm_fraction = 0;
};

/// Runs synchronous data-parallel SGD: each round every node draws
/// `options.batch_size` samples from its shard (uniform, or Eq. 12-weighted
/// with `use_importance`), gradients are averaged across all k·b samples via
/// a ring all-reduce, and the shared model takes one step, on a simulated
/// cluster or a forked process group (`spec.backend`). Either trains on
/// source.materialize(): no all-reduce plan is shard-major.
/// `options.threads` is ignored — `spec.nodes` is the parallelism.
///
/// `spec.schedule` picks the summation order, the only thing the two
/// schedules change: kEventClock adds every gradient straight into the
/// global accumulator; kFencedRoundRobin merges per-node partials in rank
/// order, the order the process group's reducer reproduces.
///
/// The Trace's time axis is simulated seconds (wall-clock seconds on the
/// process backend). `observer` (optional) receives per-epoch points, may
/// stop the run at an epoch fence, and gets the AllreduceReport via
/// on_diagnostics. Registered in the SolverRegistry as "dist.allreduce.sgd"
/// (uniform sampling).
[[nodiscard]] solvers::Trace run_allreduce_sgd(
    const data::DataSource& source, const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    bool use_importance, const solvers::EvalFn& eval,
    AllreduceReport* report = nullptr,
    solvers::TrainingObserver* observer = nullptr);

}  // namespace isasgd::distributed
