#include "distributed/param_server.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/group.hpp"
#include "distributed/real_runtime.hpp"
#include "distributed/recovery.hpp"
#include "sim/event_loop.hpp"
#include "solvers/schedule.hpp"
#include "util/timer.hpp"

namespace isasgd::distributed {

namespace {

/// One gradient step, from its draw to its apply. Under the event clock the
/// same payload is scheduled twice: once when its compute finishes
/// (`pushed` false), once when it lands in the server model. `shard` pins
/// the sampled rows of a shard-major walk while the push is in flight (null
/// on in-memory walks), so cache eviction can never invalidate a pending
/// push.
struct PsStep {
  bool pushed = false;
  std::size_t node = 0;
  const sparse::CsrMatrix* matrix = nullptr;
  std::uint32_t row = 0;
  data::ShardPtr shard;
  double gradient_scale = 0;
  double scaled_step = 0;
  std::size_t computed_after_applies = 0;  // applied-counter at compute start

  [[nodiscard]] std::size_t nnz() const {
    return matrix->row(row).indices().size();
  }
};

/// The simulated cluster over `setup`'s walks: records every fence into
/// `recorder`, fills `report`'s run counters and returns the final model.
std::vector<double> simulate(fenced::Setup& setup, std::size_t dim,
                             const objectives::Objective& objective,
                             const solvers::SolverOptions& options,
                             const ClusterSpec& spec,
                             solvers::TraceRecorder& recorder,
                             ParamServerReport& report) {
  const std::size_t k = setup.k;
  // Walks (sample streams over one shard) and executors (simulated
  // processes) are separate axes, tied together by the roster's fence-time
  // plan_assignment — the same re-planning the real controller runs. A walk
  // survives its home executor's crash; the adopting executor continues the
  // stream.
  CrashRoster roster(spec.fault, spec.recovery.policy, setup.walk_quotas());
  std::vector<double> w(dim, 0.0);
  recorder.record(0, 0.0, w);
  double sim_time = 0, lambda = 0;
  std::size_t applied = 0, bytes = 0;
  double staleness_sum = 0;

  // The step of both orderings: executor e draws from the walk the roster
  // hands it and reads the margin against the *current* server model (this
  // is ŵ for every in-flight update). Nothing when the executor is dead,
  // out of epoch quota, or scripted to crash at this turn.
  auto compute = [&](std::size_t e) -> std::optional<PsStep> {
    const std::optional<std::uint32_t> walk = roster.take(e);
    if (!walk) return std::nullopt;
    NodeWalk& nw = setup.walks[*walk];
    const NodeWalk::Sample s = nw.next();
    const auto x = s.matrix->row(s.row);
    const auto idx = x.indices();
    const auto val = x.values();
    double margin = 0;
    for (std::size_t j = 0; j < idx.size(); ++j) margin += w[idx[j]] * val[j];
    return PsStep{
        .node = e,
        .matrix = s.matrix,
        .row = s.row,
        .shard = nw.resident(),
        .gradient_scale =
            objective.gradient_scale(margin, s.matrix->label(s.row)),
        .scaled_step = lambda * s.weight,
        .computed_after_applies = applied,
    };
  };
  // ... and its landing in the server model.
  auto land = [&](const PsStep& step) {
    const auto x = step.matrix->row(step.row);
    fenced::apply_push(x.indices(), x.values(), step.gradient_scale,
                       step.scaled_step, options.reg, w);
    staleness_sum += static_cast<double>(applied - step.computed_after_applies);
    ++applied;
    bytes += step.nnz() * spec.bytes_per_nnz;
  };

  // Event clock: executor e's next step starts computing at `at`.
  sim::EventLoop<PsStep> loop;
  std::vector<std::size_t> outstanding(k, 0);  // unacked pushes in flight
  std::vector<char> stalled(k, 0);  // blocked on the flow-control window
  auto start = [&](std::size_t e, double at) {
    std::optional<PsStep> step = compute(e);
    if (!step) return;
    const double compute_seconds = spec.node_compute_seconds(e, step->nnz());
    loop.schedule(at + compute_seconds, std::move(*step));
  };

  for (std::size_t epoch = 1;
       epoch <= options.epochs && !recorder.stop_requested(); ++epoch) {
    roster.begin_epoch(epoch);
    lambda = solvers::epoch_step(options, epoch);
    for (NodeWalk& walk : setup.walks) walk.begin_epoch();
    if (spec.schedule == Schedule::kFencedRoundRobin) {
      // Per round one step per live executor in rank order, applied at its
      // turn. The simulated clock still charges the fully serialized
      // per-step cost: compute, push and apply add rather than overlap,
      // though the real process group overlaps the steps of workers whose
      // rows share no coordinate (this schedule is the determinism anchor,
      // not the performance model).
      //
      // This is also the crash-recovery mirror of the real process backend:
      // the roster kills the scripted executor at its round-robin turn after
      // the scripted number of draws — exactly when the real server stops
      // applying its pushes, since the real worker exits after that many
      // acked pushes — so a clean crash produces bit-identical models in
      // both worlds.
      while (roster.pending() > 0) {
        for (std::size_t e = 0; e < k; ++e) {
          const std::optional<PsStep> step = compute(e);
          if (!step) continue;
          land(*step);
          const std::size_t nnz = step->nnz();
          sim_time += spec.node_compute_seconds(e, nnz) +
                      spec.sparse_push_seconds(nnz) +
                      spec.apply_seconds_per_nnz * static_cast<double>(nnz);
        }
      }
    } else {
      // Pushes land at their simulated arrival time, so staleness emerges
      // from the cost model.
      for (std::size_t e = 0; e < k; ++e) {
        stalled[e] = 0;
        start(e, loop.now());
      }
      sim_time = loop.drain([&](PsStep step) {
        const std::size_t e = step.node;
        if (!step.pushed) {
          // Compute done: the push goes on the wire, and the executor
          // pipelines into its next gradient unless its flow-control window
          // (max_outstanding_pushes) is full, in which case it stalls until
          // an ack frees a slot.
          const std::size_t nnz = step.nnz();
          step.pushed = true;
          // One arrival formula for every source shape, left-associated as
          // (now + push) + apply: the pinned traces depend on it bit for
          // bit.
          loop.schedule(loop.now() + spec.sparse_push_seconds(nnz) +
                            spec.apply_seconds_per_nnz *
                                static_cast<double>(nnz),
                        std::move(step));
          ++outstanding[e];
          if (outstanding[e] < spec.max_outstanding_pushes) {
            start(e, loop.now());
          } else {
            stalled[e] = 1;
          }
          return;
        }
        land(step);
        // Ack returns after one more latency hop; a stalled worker resumes
        // then (the ack itself needs no event — the worker's next compute
        // simply starts at ack arrival).
        --outstanding[e];
        if (stalled[e]) {
          stalled[e] = 0;
          start(e, loop.now() + spec.latency_seconds);
        }
      });
    }
    // Every push of the epoch has landed: the epoch fence.
    roster.end_epoch();
    recorder.record(epoch, sim_time, w);
  }

  report.mean_staleness_updates =
      applied > 0 ? staleness_sum / static_cast<double>(applied) : 0;
  report.messages = applied;  // every push lands before its epoch's fence
  report.bytes_sent = bytes;
  report.simulated_seconds = sim_time;
  report.crash_events = roster.crash_events();
  report.rejoin_events = roster.rejoin_events();
  return w;
}

}  // namespace

solvers::Trace run_param_server(const data::DataSource& source,
                                const objectives::Objective& objective,
                                const solvers::SolverOptions& options,
                                const ClusterSpec& spec, bool use_importance,
                                const solvers::EvalFn& eval,
                                ParamServerReport* report,
                                solvers::TrainingObserver* observer) {
  spec.validate();
  const bool forked = spec.backend == Backend::kProcess;
  const bool sharded = source.shard_count() > 1;
  if (sharded && fault_tolerant(spec)) {
    throw std::invalid_argument(
        "run_param_server: a FaultScenario or wire faults need a "
        "single-shard source (a shard-major walk rewinds at every epoch, so "
        "an adopted walk cannot be fast-forwarded to the server's count)");
  }

  // ---- Partition across nodes (Algorithm 4 lines 2–11) ----
  util::Stopwatch setup_clock;
  // The group forks after this setup, and a cached source's pool threads
  // do not survive fork(): on a multi-shard source it plans over a reopened
  // handle, which the workers inherit and fault their node's shards from.
  std::unique_ptr<data::DataSource> reopened;
  if (forked && sharded) reopened = source.reopen();
  fenced::Setup setup =
      fenced::make_ps_setup(reopened ? *reopened : source, objective, options,
                            spec.nodes, use_importance);
  solvers::TraceRecorder recorder(use_importance ? "ps_is_asgd" : "ps_asgd",
                                  setup.k, options.step_size, eval, observer);
  if (!forked) recorder.mark_simulated_time();
  recorder.add_setup_seconds(setup_clock.seconds());

  ParamServerReport local;
  std::vector<double> w =
      forked ? detail::run_ps_group(setup, source.dim(), objective, options,
                                    spec, recorder, local)
             : simulate(setup, source.dim(), objective, options, spec,
                        recorder, local);
  local.phi_imbalance = setup.plan->imbalance();
  local.applied_strategy = setup.plan->applied_strategy();
  if (report) *report = local;
  if (observer) observer->on_diagnostics(local);
  if (options.keep_final_model) recorder.set_final_model(std::move(w));
  return std::move(recorder).finish(local.simulated_seconds);
}

}  // namespace isasgd::distributed
