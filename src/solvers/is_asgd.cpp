#include "solvers/is_asgd.hpp"

#include <atomic>
#include <cmath>
#include <memory>

#include "core/numa.hpp"
#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers {

Trace run_is_asgd(const sparse::CsrMatrix& data,
                  const objectives::Objective& objective,
                  const SolverOptions& options, const EvalFn& eval,
                  IsAsgdReport* report, TrainingObserver* observer,
                  util::ThreadPool* pool, const core::NumaPolicy* numa,
                  const data::RowStats* stats) {
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  TraceRecorder recorder("IS-ASGD", threads,
                         options.step_size, eval, observer);

  // ---- Offline phase (Algorithm 4 lines 2–12), timed as setup ----
  util::Stopwatch setup;
  // Sidecar-fed setup when a pack carries row stats and the configured
  // importance is a function of ‖x_i‖² alone — same numbers, no data pass.
  const bool use_stats =
      stats != nullptr && detail::stats_feed_importance(options);
  const std::vector<double> importance =
      use_stats ? detail::importance_weights_from_stats(*stats, 0, data.rows(),
                                                        objective, options)
                : detail::importance_weights(data, objective, options);
  partition::PartitionOptions popt = options.partition;
  popt.shuffle_seed = options.seed ^ 0x1517;
  const partition::PartitionPlan plan(importance, threads, popt);
  {
    IsAsgdReport diagnostics;
    diagnostics.applied_strategy = plan.applied_strategy();
    diagnostics.rho = plan.rho();
    diagnostics.phi_imbalance = plan.imbalance();
    if (report) *report = diagnostics;
    if (observer) observer->on_diagnostics(diagnostics);
  }

  // NUMA placement (inactive on single-node hosts): stripe the model across
  // the nodes (first-touch from node-pinned threads) and pin each worker to
  // the node owning its shard, shard→node balanced over the plan's Φ totals
  // — the workers with the heaviest update traffic sit next to local model
  // pages. Placement decides page homes only; the arithmetic and every
  // access path are identical to the flat model.
  const core::NumaPlacement placement =
      core::plan_placement(numa, plan.phis(), data.dim());
  SharedModel model(data.dim(), placement);
  if (placement.active) {
    detail::pool_or_default(pool).set_worker_cpus(
        core::worker_cpu_plan(placement, threads));
  }

  // Per-worker: step weight per local slot = 1/(N_tid·p_i) and a streamed
  // block sequence over local slots — ONE persistent alias table per worker
  // (not one per epoch) and O(block) draw memory regardless of epoch count.
  // Under Eq. 19 balance, N_tid·p_i = n·p_i^global so the update step
  // matches Algorithm 4 line 15 exactly.
  struct WorkerState {
    std::vector<double> weight;  // indexed by local slot
    std::unique_ptr<sampling::BlockSequence> seq;
    std::vector<detail::Gathered> batch;  // the open mini-batch's scratch
    /// Adaptive-importance extension (Eq. 11) state, all thread-local —
    /// each worker refreshes only its own shard, nothing to race on:
    std::vector<double> row_norm;  // ‖x_i‖ per local slot, cached at setup
    std::vector<double> last_g;    // |φ'| recorded at the last visit
    std::vector<double> norms;     // refresh scratch: importance estimate
    std::uint64_t stream_seed = 0; // seed of the current i.i.d. epoch stream
    std::uint64_t seed = 0;
    bool refreshed_once = false;
  };
  const auto mode = options.sequence_mode;
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  std::vector<WorkerState> workers(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    const partition::Shard shard = plan.shard(tid);
    const std::size_t local_n = shard.rows.size();
    WorkerState& ws = workers[tid];
    ws.seed = util::derive_seed(options.seed, 101 + tid);
    ws.batch.resize(b);
    ws.weight.resize(local_n);
    for (std::size_t k = 0; k < local_n; ++k) {
      const double p = shard.probabilities[k];
      ws.weight[k] =
          p > 0 ? 1.0 / (static_cast<double>(local_n) * p) : 1.0;
    }
    if (options.adaptive_importance) {
      // The distribution is re-estimated inside the timed epochs (that cost
      // is the point of the extension); only the row norms — constants of
      // the dataset — are cached here so each refresh is O(N_tid), not
      // O(local nnz).
      ws.row_norm.resize(local_n);
      if (stats != nullptr) {
        // shard.rows[] holds global row ids, which index the sidecar
        // directly; norm() = sqrt(squared_norm()) keeps this bit-identical.
        for (std::size_t k = 0; k < local_n; ++k) {
          ws.row_norm[k] = std::sqrt(stats->row_squared_norm(shard.rows[k]));
        }
      } else {
        for (std::size_t k = 0; k < local_n; ++k) {
          ws.row_norm[k] = data.row(shard.rows[k]).norm();
        }
      }
      ws.last_g.assign(local_n, 0.0);
      ws.norms.resize(local_n);
    } else if (local_n > 0) {
      ws.seq = std::make_unique<sampling::BlockSequence>(
          detail::block_mode(options), shard.probabilities, local_n, ws.seed);
    }
  }
  recorder.add_setup_seconds(setup.seconds());

  // Wild-policy fast lane: under kWild (and in serial runs) the margin dot
  // and the fused update run on the raw wild_view through the
  // ISASGD_RESTRICT kernels (detail::gather_margin / detail::apply_update)
  // — bit-identical arithmetic to the atomic-load path
  // (tests/wild_view_test.cpp), minus the per-element atomic calls.
  const bool wild = options.update_policy == UpdatePolicy::kWild;
  const bool adaptive = options.adaptive_importance;

  // Eq.-11 adaptive refresh (extension): re-estimate this worker's local
  // importance |∇f_i(ŵ)| = |φ'(ŵ·x_i)|·‖x_i‖ and rebuild its alias table +
  // step weights. The first refresh computes every margin against a racy
  // model read (the exact O(local nnz) sweep); later refreshes reuse the
  // |φ'| values already produced by the preceding epochs' gradient passes
  // (recorded per slot at gather time), so the steady-state refresh is
  // O(N_tid) — the second full sweep the pre-streaming code paid is gone.
  // Unvisited slots keep their previous estimate. Charged inside the
  // training window, like every adaptive cost.
  auto refresh_adaptive = [&](std::size_t tid, std::size_t epoch) {
    const partition::Shard shard = plan.shard(tid);
    const std::size_t local_n = shard.rows.size();
    WorkerState& ws = workers[tid];
    if (!ws.refreshed_once) {
      for (std::size_t k = 0; k < local_n; ++k) {
        const auto x = data.row(shard.rows[k]);
        const double margin = detail::gather_margin(model, x, wild);
        ws.last_g[k] =
            std::abs(objective.gradient_scale(margin, data.label(shard.rows[k])));
      }
      ws.refreshed_once = true;
    }
    double total = 0;
    for (std::size_t k = 0; k < local_n; ++k) {
      ws.norms[k] = ws.last_g[k] * ws.row_norm[k] +
                    1e-12;  // floor keeps dead samples reachable
      total += ws.norms[k];
    }
    for (std::size_t k = 0; k < local_n; ++k) {
      const double p = ws.norms[k] / total;
      ws.weight[k] = 1.0 / (static_cast<double>(local_n) * p);
    }
    if (ws.seq) {
      ws.seq->rebuild(ws.norms);  // one table build per weight change
    } else {
      ws.seq = std::make_unique<sampling::BlockSequence>(
          sampling::BlockSequence::Mode::kIid, ws.norms, local_n, ws.seed);
    }
    ws.stream_seed = util::derive_seed(ws.seed, 7000 + epoch);
  };

  // ---- Training (Algorithm 4 lines 13–15): the ASGD kernel ----
  const double train_seconds = detail::run_epoch_fenced(
      detail::pool_or_default(pool), model, recorder, options.epochs, threads,
      [&](std::size_t tid, std::size_t epoch) {
        const partition::Shard shard = plan.shard(tid);
        WorkerState& ws = workers[tid];
        if (shard.rows.empty()) return;
        if (adaptive) {
          const std::size_t interval =
              std::max<std::size_t>(1, options.adaptive_interval);
          if ((epoch - 1) % interval == 0 || !ws.seq) {
            refresh_adaptive(tid, epoch);
          }
          // Between refreshes the same stream seed replays the same i.i.d.
          // sequence — exactly the pre-streaming replay semantics.
          ws.seq->begin_epoch(epoch, ws.stream_seed);
        } else if (mode == SolverOptions::SequenceMode::kPregenerate) {
          ws.seq->begin_epoch(epoch, util::derive_seed(ws.seed, epoch - 1));
        } else {
          ws.seq->begin_epoch(epoch);
        }
        // The epoch's draws are the sequence's blocks of local slots; a
        // slot's step weight is 1/(N_tid·p_slot).
        detail::hogwild_epoch(
            data, model, objective, options.reg, options.update_policy,
            epoch_step(options, epoch), ws.batch,
            [&] { return ws.seq->next_block(); },
            [&](std::uint32_t slot) { return shard.rows[slot]; },
            [&](std::uint32_t slot, double g) {
              if (adaptive) ws.last_g[slot] = std::abs(g);
              return ws.weight[slot];
            });
      });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

namespace {

class IsAsgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "IS-ASGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.parallel = true, .importance_sampling = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_is_asgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                       /*report=*/nullptr, ctx.observer, ctx.pool, ctx.numa,
                       ctx.source.row_stats());
  }
};

ISASGD_REGISTER_SOLVER(IsAsgdSolver);

}  // namespace

}  // namespace isasgd::solvers
