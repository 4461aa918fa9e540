#include "solvers/saga.hpp"

#include "solvers/async_runner.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {

Trace run_saga(const sparse::CsrMatrix& data,
               const objectives::Objective& objective,
               const SolverOptions& options, const EvalFn& eval,
               TrainingObserver* observer, const SnapshotHooks& hooks) {
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  std::vector<double> w(d, 0.0);
  TraceRecorder recorder("SAGA", 1,
                         options.step_size, eval, observer);

  // Gradient memory: scalar α_i per sample (GLM structure) and the dense
  // running aggregate ḡ = (1/n)·Σ α_i·x_i.
  std::vector<double> alpha(n, 0.0);
  std::vector<double> aggregate(d, 0.0);
  const double inv_n = 1.0 / static_cast<double>(n);

  util::Rng rng(options.seed);
  if (hooks.resume) {
    // Same shape as SAG: the gradient memory accumulates across epochs with
    // no refresh point, so all of it rides every checkpoint.
    w = hooks.resume->model;
    rng = hooks.resume->get_rng("rng");
    alpha = hooks.resume->real_section("sag.alpha");
    aggregate = hooks.resume->real_section("sag.aggregate");
  }
  const double eta_l1 = options.reg.eta_l1();
  const double eta_l2 = options.reg.eta_l2();
  const double train_seconds = detail::run_epochs(
      util::default_thread_pool(), /*team=*/1, w, recorder,
      hooks.first_epoch(), options.epochs,
      [&](std::size_t epoch) {
        const double step = epoch_step(options, epoch);
        for (std::size_t t = 0; t < n; ++t) {
          const std::size_t i = util::uniform_index(rng, n);
          const auto x = data.row(i);
          const auto idx = x.indices();
          const auto val = x.values();
          const double margin = sparse::sparse_dot(w, x);
          const double g = objective.gradient_scale(margin, data.label(i));
          const double delta = g - alpha[i];

          // SAGA update: w ← w − λ[(g − α_i)·x_i + ḡ + ∇r(w)].
          // The (g − α_i)·x_i part is index-compressed; ḡ and the
          // regularizer are the dense full-length pass (the §1.2 cost) —
          // both fused into one model traversal.
          sparse::scale_then_sparse_axpy(w, aggregate, step, eta_l1, eta_l2,
                                         step * delta, x);

          // Memory refresh: ḡ += (g − α_i)·x_i / n; α_i ← g. (Kept scalar:
          // the (delta·x)·1/n product order is part of the reference
          // arithmetic.)
          for (std::size_t k = 0; k < idx.size(); ++k) {
            aggregate[idx[k]] += delta * val[k] * inv_n;
          }
          alpha[i] = g;
        }
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(hooks, "SAGA", epoch, options.seed,
                              options.epochs, w, [&](SnapshotState& state) {
                                state.put_rng("rng", rng);
                                state.reals["sag.alpha"] = alpha;
                                state.reals["sag.aggregate"] = aggregate;
                              });
      });
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(train_seconds);
}

namespace {

class SagaSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "SAGA"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.variance_reduced = true, .checkpointable = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_saga(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                    ctx.observer, ctx.snapshot);
  }
};

ISASGD_REGISTER_SOLVER(SagaSolver);

}  // namespace

}  // namespace isasgd::solvers
