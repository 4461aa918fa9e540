#include "distributed/allreduce.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/group.hpp"
#include "distributed/real_runtime.hpp"
#include "sim/event_loop.hpp"
#include "solvers/schedule.hpp"
#include "util/timer.hpp"

namespace isasgd::distributed {

namespace {

/// The simulated all-reduce over `setup`'s walks: records every fence into
/// `recorder`, fills `report`'s run counters and returns the final model.
std::vector<double> simulate(fenced::Setup& setup, std::size_t dim,
                             std::size_t rounds_per_epoch, std::size_t b,
                             const objectives::Objective& objective,
                             const solvers::SolverOptions& options,
                             const ClusterSpec& spec,
                             solvers::TraceRecorder& recorder,
                             AllreduceReport& report) {
  // The one schedule difference: the fenced order sums each node's partial
  // first and merges the partials in rank order.
  const bool rank_order_merge = spec.schedule == Schedule::kFencedRoundRobin;
  const std::size_t k = setup.k;
  std::vector<double> w(dim, 0.0);
  recorder.record(0, 0.0, w);
  // Dense scratch with touched lists, so a round costs O(touched) to reset,
  // not O(d): the global accumulator, and (rank-order merge only) the
  // per-node partial.
  std::vector<double> accum(dim, 0.0);
  std::vector<double> partial(rank_order_merge ? dim : 0, 0.0);
  std::vector<std::uint32_t> touched, ptouched;
  std::vector<double>& sum = rank_order_merge ? partial : accum;
  std::vector<std::uint32_t>& sum_touched =
      rank_order_merge ? ptouched : touched;
  const double allreduce_seconds = spec.ring_allreduce_seconds(dim);
  const double samples_per_round = static_cast<double>(k * b);

  double sim_time = 0, comm_time = 0;
  std::size_t rounds = 0;
  sim::NodeClocks clocks(k);  // round-relative per-node compute clocks
  for (std::size_t epoch = 1;
       epoch <= options.epochs && !recorder.stop_requested(); ++epoch) {
    const double lambda = solvers::epoch_step(options, epoch);
    for (std::size_t r = 0; r < rounds_per_epoch; ++r, ++rounds) {
      // Each node advances its own clock; the synchronous barrier means the
      // round takes the *slowest* node's time (stragglers are the sync
      // penalty).
      clocks.reset();
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t s = 0; s < b; ++s) {
          const NodeWalk::Sample sample = setup.walks[a].next();
          const auto x = sample.matrix->row(sample.row);
          const auto idx = x.indices();
          const auto val = x.values();
          double margin = 0;
          for (std::size_t j = 0; j < idx.size(); ++j) {
            margin += w[idx[j]] * val[j];
          }
          const double g =
              objective.gradient_scale(margin,
                                       sample.matrix->label(sample.row)) *
              sample.weight;
          for (std::size_t j = 0; j < idx.size(); ++j) {
            const std::size_t c = idx[j];
            if (sum[c] == 0.0) sum_touched.push_back(idx[j]);
            sum[c] += g * val[j];
          }
          clocks.advance(a, spec.node_compute_seconds(a, idx.size()));
        }
        if (rank_order_merge) {
          for (const std::uint32_t c : ptouched) {
            if (accum[c] == 0.0) touched.push_back(c);
            accum[c] += partial[c];
            partial[c] = 0.0;
          }
          ptouched.clear();
        }
      }
      // Ring all-reduce of the dense aggregate, then one model step.
      const double slowest = clocks.barrier();
      sim_time += slowest + allreduce_seconds;
      comm_time += allreduce_seconds;
      // One step of w ← w − λ(mean gradient + ∇r): the gradient average is
      // over the k·b samples; the regularizer enters once per round at full
      // λ (its full-batch ERM contribution), on touched coordinates.
      const double step = lambda / samples_per_round;
      for (const std::uint32_t c : touched) {
        w[c] -= step * accum[c] + lambda * options.reg.subgradient(w[c]);
        accum[c] = 0.0;
      }
      touched.clear();
    }
    recorder.record(epoch, sim_time, w);
  }

  report.rounds = rounds;
  report.simulated_seconds = sim_time;
  report.comm_fraction = sim_time > 0 ? comm_time / sim_time : 0;
  return w;
}

}  // namespace

solvers::Trace run_allreduce_sgd(const data::DataSource& source,
                                 const objectives::Objective& objective,
                                 const solvers::SolverOptions& options,
                                 const ClusterSpec& spec, bool use_importance,
                                 const solvers::EvalFn& eval,
                                 AllreduceReport* report,
                                 solvers::TrainingObserver* observer) {
  spec.validate();
  if (fault_tolerant(spec)) {
    throw std::invalid_argument(
        "run_allreduce_sgd: fault injection and crash scenarios are "
        "implemented for the parameter-server engine (the all-reduce has no "
        "recovery protocol)");
  }
  const bool forked = spec.backend == Backend::kProcess;
  // No all-reduce plan is shard-major: both backends train on the whole
  // matrix. The group counts a materialize as setup, as Solver::train
  // counts a wall-clock solver's; the simulator's setup clock starts after.
  util::Stopwatch setup_clock;
  const sparse::CsrMatrix& data = source.materialize();
  if (!forked) setup_clock.reset();
  fenced::Setup setup = fenced::make_allreduce_setup(
      data, objective, options, spec.nodes, use_importance);
  const std::size_t k = setup.k;
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  const std::size_t rounds_per_epoch = (data.rows() + k * b - 1) / (k * b);
  solvers::TraceRecorder recorder(
      use_importance ? "allreduce_is_sgd" : "allreduce_sgd", k,
      options.step_size, eval, observer);
  if (!forked) recorder.mark_simulated_time();
  recorder.add_setup_seconds(setup_clock.seconds());

  AllreduceReport local;
  local.bytes_per_node_per_round =
      k > 1 ? 2.0 * (static_cast<double>(k) - 1.0) / static_cast<double>(k) *
                  static_cast<double>(data.dim()) *
                  static_cast<double>(spec.bytes_per_dense_coord)
            : 0.0;
  std::vector<double> w =
      forked ? detail::run_allreduce_group(setup, data.dim(), rounds_per_epoch,
                                           b, objective, options, spec,
                                           recorder, local)
             : simulate(setup, data.dim(), rounds_per_epoch, b, objective,
                        options, spec, recorder, local);
  if (report) *report = local;
  if (observer) observer->on_diagnostics(local);
  if (options.keep_final_model) recorder.set_final_model(std::move(w));
  return std::move(recorder).finish(local.simulated_seconds);
}

}  // namespace isasgd::distributed
