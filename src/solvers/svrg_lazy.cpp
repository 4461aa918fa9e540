#include "solvers/svrg_lazy.hpp"

#include <cmath>
#include <stdexcept>

#include "solvers/async_runner.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {

namespace {

/// Same full loss gradient as svrg_sgd.cpp (duplicated locally: the faithful
/// solver keeps its helper internal, and the two must stay independently
/// readable).
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

Trace run_svrg_sgd_lazy(const sparse::CsrMatrix& data,
                        const objectives::Objective& objective,
                        const SolverOptions& options, const EvalFn& eval,
                        TrainingObserver* observer,
                        const SnapshotHooks& hooks) {
  if (options.reg.kind == objectives::Regularization::Kind::kL1) {
    throw std::invalid_argument(
        "run_svrg_sgd_lazy: L1's subgradient path has no per-coordinate "
        "closed form (it can cross zero and oscillate); use run_svrg_sgd, "
        "or an L2/none regularizer here");
  }
  const bool l2 = options.reg.kind == objectives::Regularization::Kind::kL2;
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  std::vector<double> w(d, 0.0);
  TraceRecorder recorder("SVRG-LAZY", 1, options.step_size, eval, observer);

  std::vector<double> s(d, 0.0);   // snapshot
  std::vector<double> mu(d, 0.0);  // full loss gradient at s
  std::vector<std::uint32_t> last(d, 0);  // per-coordinate dense clock
  util::Rng rng(options.seed);
  const std::size_t interval =
      std::max<std::size_t>(1, options.svrg_snapshot_interval);

  if (hooks.resume) {
    // The lazy clocks are all zero at every fence (the epoch flush below),
    // so the cross-epoch state is exactly the faithful solver's:
    // {w, rng, s, μ}.
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
        const double a = 1.0 - step * options.reg.eta;  // L2 decay per step

        // Applies the dense recurrence for `m` missed steps to w[j]:
        //   none: w_j −= m·λ·μ_j
        //   L2:   w_j ← a^m·w_j − λ·μ_j·(1−a^m)/(1−a)
        auto catch_up = [&](std::size_t j, std::uint32_t m) {
          if (m == 0) return;
          if (!l2) {
            w[j] -= static_cast<double>(m) * step * mu[j];
          } else {
            const double am = std::pow(a, static_cast<double>(m));
            w[j] = am * w[j] - step * mu[j] * (1.0 - am) / (1.0 - a);
          }
        };

        if ((epoch - 1) % interval == 0) {
          // Snapshot refresh reads the true w: all clocks are 0 here (the
          // epoch-end flush below guarantees it).
          s = w;
          full_loss_gradient(data, objective, s, mu);
        }
        for (std::uint32_t t = 1; t <= n; ++t) {
          const std::size_t i = util::uniform_index(rng, n);
          const auto x = data.row(i);
          const double y = data.label(i);
          const auto idx = x.indices();
          const auto val = x.values();
          // Materialise the support to the state after iteration t−1, then
          // read both margins — identical values to the faithful schedule.
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::size_t j = idx[k];
            catch_up(j, t - 1 - last[j]);
            last[j] = t - 1;
          }
          double margin_w = 0, margin_s = 0;
          sparse::sparse_dot_pair(w, s, x, margin_w, margin_s);
          const double correction = objective.gradient_scale(margin_w, y) -
                                    objective.gradient_scale(margin_s, y);
          // Sparse correction, then this iteration's own dense step for the
          // support (the off-support coordinates accrue it lazily).
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::size_t j = idx[k];
            w[j] -= step * correction * val[k];
            w[j] -= step * (mu[j] + options.reg.subgradient(w[j]));
            last[j] = t;
          }
        }
        // Epoch flush: one O(d) pass so evaluation (and the next snapshot)
        // sees the true model. This is the *only* dense pass of the epoch.
        for (std::size_t j = 0; j < d; ++j) {
          catch_up(j, static_cast<std::uint32_t>(n) - last[j]);
          last[j] = 0;
        }
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(hooks, "SVRG-LAZY", epoch, options.seed,
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

class SvrgLazySolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "SVRG-LAZY"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.variance_reduced = true, .checkpointable = true};
  }

  void validate(SolverOptions& options) const override {
    Solver::validate(options);
    // Fail before any setup work: L1 has no per-coordinate closed form for
    // the lazy catch-up (see the header's discussion).
    if (options.reg.kind == objectives::Regularization::Kind::kL1) {
      throw std::invalid_argument(
          "SVRG-LAZY: L1 regularization is not supported (no exact lazy "
          "catch-up); use SVRG-SGD or an L2/none regularizer");
    }
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_svrg_sgd_lazy(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                             ctx.observer, ctx.snapshot);
  }
};

ISASGD_REGISTER_SOLVER(SvrgLazySolver);

}  // namespace

}  // namespace isasgd::solvers
