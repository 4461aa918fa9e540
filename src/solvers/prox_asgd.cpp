#include "solvers/prox_sgd.hpp"

#include <memory>
#include <numeric>
#include <vector>

#include "objectives/prox.hpp"
#include "partition/partition.hpp"
#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers {

Trace run_prox_asgd(const sparse::CsrMatrix& data,
                    const objectives::Objective& objective,
                    const SolverOptions& options, bool use_importance,
                    const EvalFn& eval, ProxReport* report,
                    TrainingObserver* observer, util::ThreadPool* pool) {
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  SharedModel model(data.dim());
  TraceRecorder recorder(use_importance ? "IS-PROX-ASGD" : "PROX-ASGD",
                        threads, options.step_size, eval, observer);

  // ---- Offline phase: Algorithm-4 partition + per-shard sequences ----
  util::Stopwatch setup;
  const std::vector<double> importance =
      detail::importance_weights(data, objective, options);
  partition::PartitionOptions popt = options.partition;
  if (!use_importance) popt.strategy = partition::Strategy::kShuffle;
  popt.shuffle_seed = options.seed ^ 0x9a0c;
  const partition::PartitionPlan plan(importance, threads, popt);

  struct WorkerState {
    std::vector<double> weight;  // 1/(N_tid·p_i), unit for uniform
    std::unique_ptr<sampling::BlockSequence> seq;
    util::Rng rng;
  };
  std::vector<WorkerState> workers(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    const partition::Shard shard = plan.shard(tid);
    const std::size_t local_n = shard.rows.size();
    WorkerState& ws = workers[tid];
    ws.weight.assign(local_n, 1.0);
    ws.rng.reseed(util::derive_seed(options.seed, 0xa90c + tid));
    if (use_importance && local_n > 0) {
      for (std::size_t k = 0; k < local_n; ++k) {
        const double p = shard.probabilities[k];
        ws.weight[k] =
            p > 0 ? 1.0 / (static_cast<double>(local_n) * p) : 1.0;
      }
      // One persistent alias table per worker; per-epoch draws stream from
      // it under the retired pre-materialized layout's epoch seeds.
      ws.seq = std::make_unique<sampling::BlockSequence>(
          sampling::BlockSequence::Mode::kIid, shard.probabilities, local_n,
          options.seed);
    }
  }
  recorder.add_setup_seconds(setup.seconds());

  const UpdatePolicy policy = options.update_policy;
  // Wild fast lane: margin dot through the SIMD kernel and the prox map
  // applied directly on the raw view — the same racy load→fn→store the
  // kWild branch of SharedModel::update performs, minus the per-element
  // atomic_ref calls (see model.hpp's wild_view contract).
  const bool wild = policy == UpdatePolicy::kWild;
  const std::span<double> wv = model.wild_view();
  util::ThreadPool& team_pool = detail::pool_or_default(pool);
  const double train_seconds = detail::run_epochs(
      team_pool, threads, wv, recorder, /*first_epoch=*/1, options.epochs,
      [&](std::size_t epoch) {
        team_pool.run(threads, [&](std::size_t tid) {
          const partition::Shard shard = plan.shard(tid);
          const std::size_t local_n = shard.rows.size();
          if (local_n == 0) return;
          WorkerState& ws = workers[tid];
          const double lambda = epoch_step(options, epoch);
          if (use_importance) {
            ws.seq->begin_epoch(
                epoch, util::derive_seed(options.seed,
                                         300 + tid * 1000 + (epoch - 1)));
          }
          for (std::size_t t = 0; t < local_n; ++t) {
            const std::size_t slot =
                use_importance
                    ? ws.seq->next()
                    : static_cast<std::size_t>(
                          util::uniform_index(ws.rng, local_n));
            const std::size_t i = shard.rows[slot];
            const auto x = data.row(i);
            const double margin = detail::gather_margin(model, x, wild);
            const double g =
                objective.gradient_scale(margin, data.label(i)) *
                ws.weight[slot];
            const auto idx = x.indices();
            const auto val = x.values();
            if (wild) {
              for (std::size_t k = 0; k < idx.size(); ++k) {
                double& wj = wv[idx[k]];
                wj = objectives::prox(options.reg, wj - lambda * g * val[k],
                                      lambda);
              }
            } else {
              for (std::size_t k = 0; k < idx.size(); ++k) {
                const double gstep = lambda * g * val[k];
                model.update(
                    idx[k],
                    [&](double v) {
                      return objectives::prox(options.reg, v - gstep, lambda);
                    },
                    policy);
              }
            }
          }
        });
      },
      detail::no_fence);

  const std::vector<double> w = model.snapshot();
  {
    ProxReport diagnostics;
    std::size_t zeros = 0;
    for (double v : w) zeros += v == 0.0;
    diagnostics.sparsity =
        static_cast<double>(zeros) / static_cast<double>(data.dim());
    if (report) *report = diagnostics;
    if (observer) observer->on_diagnostics(diagnostics);
  }
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(train_seconds);
}

namespace {

class ProxAsgdSolver final : public Solver {
 public:
  ProxAsgdSolver(std::string_view name, bool use_importance)
      : name_(name), use_importance_(use_importance) {}

  std::string_view name() const noexcept override { return name_; }
  SolverCapabilities capabilities() const noexcept override {
    return {.parallel = true,
            .importance_sampling = use_importance_,
            .proximal = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_prox_asgd(ctx.data(), ctx.objective, ctx.options, use_importance_,
                         ctx.eval, /*report=*/nullptr, ctx.observer, ctx.pool);
  }

 private:
  std::string_view name_;
  bool use_importance_;
};

const SolverRegistration prox_asgd_registration{
    std::make_unique<ProxAsgdSolver>("PROX-ASGD", false)};
const SolverRegistration is_prox_asgd_registration{
    std::make_unique<ProxAsgdSolver>("IS-PROX-ASGD", true)};

}  // namespace

}  // namespace isasgd::solvers
