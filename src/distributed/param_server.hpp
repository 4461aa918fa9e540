// Parameter-server simulation: IS-ASGD at node granularity.
//
// Each simulated node owns one shard of the dataset (the Algorithm-4
// partition, so importance balancing applies across *nodes* exactly as §2.3
// describes), computes stochastic gradients against the server's parameters
// and pushes index-compressed sparse updates. One step executor serves both
// orderings of ClusterSpec::schedule; they share the step (roster draw,
// margin, gradient scale) and the apply, and differ only in when a step
// lands:
//
//   kEventClock        pushes are send-and-forget and the server applies
//                      them in arrival order. Staleness is not injected —
//                      it *emerges* from the cost model: an update computed
//                      at time s lands at s + compute + latency +
//                      size/bandwidth, and every update other nodes land in
//                      between is the paper's τ (a sim::EventLoop drain).
//   kFencedRoundRobin  every step applies at its round-robin turn
//                      (fenced.hpp), so staleness is 0 and the run is the
//                      bit-exact twin of the real process group.
//
// Either way the simulation runs on a single thread (simulated time is
// exact and runs are bit-reproducible for a fixed seed), and the returned
// Trace carries simulated seconds, so param-server IS-ASGD / ASGD /
// all-reduce SGD are directly comparable under one ClusterSpec.
// ClusterSpec::backend = kProcess runs the fenced schedule on a forked
// process group instead (real_runtime.hpp), from the same setup.
//
// Registry names (solvers/SolverRegistry): "dist.ps.is_asgd" wraps the
// importance-sampled run, "dist.ps.asgd" the uniform baseline; both read
// their ClusterSpec from SolverContext::cluster (TrainerBuilder::cluster)
// and publish a ParamServerReport through TrainingObserver::on_diagnostics.
#pragma once

#include <cstdint>

#include "data/data_source.hpp"
#include "distributed/cluster.hpp"
#include "objectives/objective.hpp"
#include "solvers/observer.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"

namespace isasgd::distributed {

/// Diagnostics of one parameter-server run. Published to
/// TrainingObserver::on_diagnostics by the registry wrappers.
struct ParamServerReport {
  /// Mean number of foreign updates applied between an update's compute
  /// start and its arrival — the emergent τ of §3.
  double mean_staleness_updates = 0;
  /// Total pushes (= total updates = epochs·n).
  std::size_t messages = 0;
  /// Total bytes pushed over all links.
  std::size_t bytes_sent = 0;
  /// Simulated seconds at the end of training (wall clock on kProcess).
  double simulated_seconds = 0;
  /// Φ spread across node shards ((max−min)/mean, Eq. 18/19).
  double phi_imbalance = 0;
  /// Partition strategy actually applied (resolves kAdaptive).
  partition::Strategy applied_strategy = partition::Strategy::kNone;
  /// Wire-client retransmits summed over ranks (0 without fault injection).
  std::uint64_t wire_retries = 0;
  /// Worker deaths observed (scripted FaultScenario crash, or a liveness
  /// deadline expiring under wire faults).
  std::uint64_t crash_events = 0;
  /// Replacement workers admitted at an epoch fence.
  std::uint64_t rejoin_events = 0;
};

/// Runs `options.epochs` passes of parameter-server SGD over the cluster
/// `spec` describes: simulated, or a forked process group when
/// `spec.backend` is kProcess. `options.threads` is ignored — `spec.nodes`
/// is the parallelism.
/// With `use_importance` true, each node samples its shard by the local
/// Eq. 12 distribution with 1/(N_a·p_i) reweighting (Algorithm 4 lines
/// 10–15) and the partition honours `options.partition`; with it false,
/// nodes sample uniformly (distributed ASGD baseline) over a shuffled split.
///
/// The source's shape picks the partition (fenced::make_ps_setup): a
/// single-shard source (e.g. data::InMemorySource over a matrix) is split
/// row by row; a multi-shard source is dealt to nodes in whole shards, so a
/// streaming source feeds the cluster shard by shard without materialising
/// one full matrix. Either way every draw goes through the node's NodeWalk.
/// The process group plans a multi-shard source over source.reopen(), so
/// each worker faults only its own node's shards. A `spec.fault` crash or
/// wire faults need the single-shard shape (std::invalid_argument).
///
/// The Trace's time axis is simulated seconds (wall-clock seconds on the
/// process backend): on the fenced schedule the serialized per-step costs,
/// with mean staleness reported as 0.
/// `observer` (optional) receives per-epoch points, may stop the run at an
/// epoch fence, and gets the ParamServerReport via on_diagnostics.
[[nodiscard]] solvers::Trace run_param_server(
    const data::DataSource& source, const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    bool use_importance, const solvers::EvalFn& eval,
    ParamServerReport* report = nullptr,
    solvers::TrainingObserver* observer = nullptr);

}  // namespace isasgd::distributed
