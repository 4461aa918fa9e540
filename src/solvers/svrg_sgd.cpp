#include "solvers/svrg_sgd.hpp"

#include "solvers/async_runner.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {

namespace {

/// μ_loss = (1/n)·Σ_i φ'(s·x_i)·x_i — the loss part of the full gradient at
/// the snapshot (the regularizer's dense part cancels against −∇r(s) in the
/// variance-reduced gradient, see the derivation in svrg_sgd.hpp's notes).
void full_loss_gradient(const sparse::CsrMatrix& data,
                        const objectives::Objective& objective,
                        std::span<const double> s, std::vector<double>& mu) {
  mu.assign(s.size(), 0.0);
  const double inv_n = 1.0 / static_cast<double>(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto x = data.row(i);
    const double margin = sparse::sparse_dot(s, x);
    const double g = objective.gradient_scale(margin, data.label(i)) * inv_n;
    sparse::sparse_axpy(mu, g, x);
  }
}

}  // namespace

Trace run_svrg_sgd(const sparse::CsrMatrix& data,
                   const objectives::Objective& objective,
                   const SolverOptions& options, const EvalFn& eval,
                   TrainingObserver* observer, const SnapshotHooks& hooks) {
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  std::vector<double> w(d, 0.0);
  TraceRecorder recorder("SVRG-SGD", 1,
                         options.step_size, eval, observer);

  std::vector<double> s(d, 0.0);   // snapshot
  std::vector<double> mu(d, 0.0);  // full loss gradient at s
  util::Rng rng(options.seed);
  const std::size_t interval = std::max<std::size_t>(1, options.svrg_snapshot_interval);
  const double eta_l1 = options.reg.eta_l1();
  const double eta_l2 = options.reg.eta_l2();

  if (hooks.resume) {
    // The anchor pair (s, μ) persists across epochs between refreshes, so
    // it rides every checkpoint alongside {w, rng}.
    w = hooks.resume->model;
    rng = hooks.resume->get_rng("rng");
    s = hooks.resume->real_section("svrg.anchor");
    mu = hooks.resume->real_section("svrg.mu");
  }

  const double train_seconds = detail::run_epochs(
      util::default_thread_pool(), /*team=*/1, w, recorder,
      hooks.first_epoch(), options.epochs,
      [&](std::size_t epoch) {
        const double step = epoch_step(options, epoch);
        if ((epoch - 1) % interval == 0) {
          s = w;
          full_loss_gradient(data, objective, s, mu);
        }
        for (std::size_t t = 0; t < n; ++t) {
          const std::size_t i = util::uniform_index(rng, n);
          const auto x = data.row(i);
          const double y = data.label(i);
          double margin_w = 0, margin_s = 0;
          sparse::sparse_dot_pair(w, s, x, margin_w, margin_s);
          const double correction = objective.gradient_scale(margin_w, y) -
                                    objective.gradient_scale(margin_s, y);
          if (!options.svrg_skip_mu) {
            // Faithful Algorithm 1 line 7: sparse correction + dense μ
            // (plus the dense regularizer at w) — the O(d) pass the paper's
            // performance analysis targets, fused into one model traversal.
            sparse::scale_then_sparse_axpy(w, mu, step, eta_l1, eta_l2,
                                           step * correction, x);
          } else {
            // Public-version approximation: sparse correction, regularizer
            // on the support only.
            sparse::sparse_axpy(w, -(step * correction), x);
            sparse::sparse_dot_residual_axpy(w, x, step, 0.0, eta_l1,
                                             eta_l2);
          }
        }
        if (options.svrg_skip_mu) {
          // One aggregate μ correction at epoch end ("multiplying µ with n").
          sparse::dense_axpy(w, -(step * static_cast<double>(n)), mu);
        }
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(hooks, "SVRG-SGD", epoch, options.seed,
                              options.epochs, w, [&](SnapshotState& state) {
                                state.put_rng("rng", rng);
                                state.reals["svrg.anchor"] = s;
                                state.reals["svrg.mu"] = mu;
                              });
      });
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(train_seconds);
}

namespace {

class SvrgSgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "SVRG-SGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.variance_reduced = true, .checkpointable = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_svrg_sgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                        ctx.observer, ctx.snapshot);
  }
};

ISASGD_REGISTER_SOLVER(SvrgSgdSolver);

}  // namespace

}  // namespace isasgd::solvers
