#include "distributed/param_server.hpp"

#include <optional>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/recovery.hpp"
#include "sim/event_loop.hpp"
#include "solvers/schedule.hpp"
#include "util/timer.hpp"

namespace isasgd::distributed {

namespace {

enum class EventKind { kComputeDone, kApply };

/// One scheduled event's payload. For kComputeDone it describes the gradient
/// whose computation finishes now; for kApply the same payload lands in the
/// server model. `shard` pins the sampled rows of a shard-major walk while
/// the push is in flight (null on in-memory walks), so cache eviction can
/// never invalidate a pending push.
struct PsEvent {
  EventKind kind = EventKind::kComputeDone;
  std::size_t node = 0;
  const sparse::CsrMatrix* matrix = nullptr;
  std::uint32_t row = 0;
  data::ShardPtr shard;
  double gradient_scale = 0;
  double scaled_step = 0;
  std::size_t computed_after_applies = 0;  // applied-counter at compute start
};

}  // namespace

solvers::Trace run_param_server(const data::DataSource& source,
                                const objectives::Objective& objective,
                                const solvers::SolverOptions& options,
                                const ClusterSpec& spec, bool use_importance,
                                const solvers::EvalFn& eval,
                                ParamServerReport* report,
                                solvers::TrainingObserver* observer) {
  spec.validate();

  // ---- Partition across nodes (Algorithm 4 lines 2–11) ----
  util::Stopwatch setup_clock;
  fenced::Setup setup = fenced::make_ps_setup(source, objective, options,
                                              spec.nodes, use_importance);
  const std::size_t k = setup.k;
  // Walks (sample streams over one shard) and executors (simulated
  // processes) are separate axes, tied together by the roster's fence-time
  // plan_assignment — the same re-planning the real controller and the
  // fenced mirror run. A walk survives its home executor's crash; the
  // adopting executor continues the stream.
  CrashRoster roster(spec.fault, spec.recovery.policy, setup.walk_quotas(),
                     /*replayable_walks=*/setup.shard_phi.empty());
  std::vector<double> w(source.dim(), 0.0);
  solvers::TraceRecorder recorder(use_importance ? "ps_is_asgd" : "ps_asgd", k,
                                  options.step_size, eval, observer);
  recorder.mark_simulated_time();
  std::vector<std::size_t> outstanding(k, 0);  // unacked pushes in flight
  std::vector<char> stalled(k, 0);  // blocked on the flow-control window
  recorder.add_setup_seconds(setup_clock.seconds());
  recorder.record(0, 0.0, w);

  sim::EventLoop<PsEvent> loop;
  std::size_t applied = 0, bytes = 0;
  double staleness_sum = 0;

  // Starts executor e's next gradient at simulated time `now`: draws from
  // the walk the roster hands it, reads the margin against the *current*
  // server state (this is ŵ for every in-flight update) and schedules the
  // compute-done event. No-op once the executor is dead, out of epoch quota,
  // or scripted to crash at this turn.
  auto start_compute = [&](std::size_t e, double now, double lambda) {
    const std::optional<std::uint32_t> walk = roster.take(e);
    if (!walk) return;
    NodeWalk& nw = setup.walks[*walk];
    const NodeWalk::Sample s = nw.next();
    const auto x = s.matrix->row(s.row);
    const auto idx = x.indices();
    const auto val = x.values();
    double margin = 0;
    for (std::size_t j = 0; j < idx.size(); ++j) margin += w[idx[j]] * val[j];
    loop.schedule(now + spec.node_compute_seconds(e, idx.size()),
                  PsEvent{
                      .kind = EventKind::kComputeDone,
                      .node = e,
                      .matrix = s.matrix,
                      .row = s.row,
                      .shard = nw.resident(),
                      .gradient_scale = objective.gradient_scale(
                          margin, s.matrix->label(s.row)),
                      .scaled_step = lambda * s.weight,
                      .computed_after_applies = applied,
                  });
  };

  for (std::size_t epoch = 1;
       epoch <= options.epochs && !recorder.stop_requested(); ++epoch) {
    roster.begin_epoch(epoch);
    const double lambda = solvers::epoch_step(options, epoch);
    for (NodeWalk& walk : setup.walks) walk.begin_epoch();
    for (std::size_t e = 0; e < k; ++e) {
      stalled[e] = 0;
      start_compute(e, loop.now(), lambda);
    }
    loop.drain([&](PsEvent ev) {
      const auto x = ev.matrix->row(ev.row);
      const std::size_t e = ev.node;
      if (ev.kind == EventKind::kComputeDone) {
        // Push goes on the wire; the executor pipelines into its next
        // gradient unless its flow-control window (max_outstanding_pushes)
        // is full, in which case it stalls until an ack frees a slot.
        const std::size_t nnz = x.indices().size();
        ev.kind = EventKind::kApply;
        bytes += nnz * spec.bytes_per_nnz;
        // One arrival formula for every source shape, left-associated as
        // (now + push) + apply: the pinned traces depend on it bit for bit.
        loop.schedule(loop.now() + spec.sparse_push_seconds(nnz) +
                          spec.apply_seconds_per_nnz *
                              static_cast<double>(nnz),
                      std::move(ev));
        ++outstanding[e];
        if (outstanding[e] < spec.max_outstanding_pushes) {
          start_compute(e, loop.now(), lambda);
        } else {
          stalled[e] = 1;
        }
      } else {
        fenced::apply_push(x.indices(), x.values(), ev.gradient_scale,
                           ev.scaled_step, options.reg, w);
        staleness_sum +=
            static_cast<double>(applied - ev.computed_after_applies);
        ++applied;
        // Ack returns after one more latency hop; a stalled worker resumes
        // then (the ack itself needs no event — the worker's next compute
        // simply starts at ack arrival).
        --outstanding[e];
        if (stalled[e]) {
          stalled[e] = 0;
          start_compute(e, loop.now() + spec.latency_seconds, lambda);
        }
      }
    });
    // Queue drained = epoch fence: every push of the epoch has landed.
    roster.end_epoch();
    recorder.record(epoch, loop.now(), w);
  }

  if (report || observer) {
    ParamServerReport local;
    local.mean_staleness_updates =
        applied > 0 ? staleness_sum / static_cast<double>(applied) : 0;
    local.messages = applied;  // every push lands before its epoch's fence
    local.bytes_sent = bytes;
    local.simulated_seconds = loop.now();
    local.phi_imbalance = setup.plan->imbalance();
    local.applied_strategy = setup.plan->applied_strategy();
    local.crash_events = roster.crash_events();
    local.rejoin_events = roster.rejoin_events();
    if (report) *report = local;
    if (observer) observer->on_diagnostics(local);
  }
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(loop.now());
}

}  // namespace isasgd::distributed
