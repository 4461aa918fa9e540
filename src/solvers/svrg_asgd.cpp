#include "solvers/svrg_asgd.hpp"

#include "solvers/async_runner.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::solvers {

namespace {

/// Parallel μ_loss = (1/n)·Σ_i φ'(s·x_i)·x_i. Rows are chunked across
/// `threads` pool workers; each worker accumulates into its own buffer,
/// then the buffers are reduced (dense, O(threads·d) — amortised once per
/// snapshot period).
void full_loss_gradient_parallel(util::ThreadPool& pool,
                                 const sparse::CsrMatrix& data,
                                 const objectives::Objective& objective,
                                 std::span<const double> s,
                                 std::vector<double>& mu,
                                 std::size_t threads) {
  const std::size_t n = data.rows();
  const std::size_t d = s.size();
  std::vector<std::vector<double>> partial(threads,
                                           std::vector<double>(d, 0.0));
  pool.run(threads, [&](std::size_t tid) {
    std::vector<double>& acc = partial[tid];
    const std::size_t begin = n * tid / threads;
    const std::size_t end = n * (tid + 1) / threads;
    for (std::size_t i = begin; i < end; ++i) {
      const auto x = data.row(i);
      const double margin = sparse::sparse_dot(s, x);
      const double g = objective.gradient_scale(margin, data.label(i));
      sparse::sparse_axpy(acc, g, x);
    }
  });
  mu.assign(d, 0.0);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (const auto& acc : partial) {
    for (std::size_t j = 0; j < d; ++j) mu[j] += acc[j] * inv_n;
  }
}

}  // namespace

Trace run_svrg_asgd(const sparse::CsrMatrix& data,
                    const objectives::Objective& objective,
                    const SolverOptions& options, const EvalFn& eval,
                    TrainingObserver* observer, util::ThreadPool* pool_ptr) {
  util::ThreadPool& pool = detail::pool_or_default(pool_ptr);
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  SharedModel model(d);
  TraceRecorder recorder("SVRG-ASGD", threads,
                         options.step_size, eval, observer);

  std::vector<double> s(d, 0.0);
  std::vector<double> mu(d, 0.0);
  const std::size_t interval =
      std::max<std::size_t>(1, options.svrg_snapshot_interval);
  const UpdatePolicy policy = options.update_policy;
  // Wild fast lane: the inner loop's dual margin read and its fused
  // sparse-correction + dense-μ pass run on the raw wild_view through the
  // ISASGD_RESTRICT kernels (sparse_dot_pair / scale_then_sparse_axpy) —
  // per-coordinate arithmetic identical to the atomic-load loops below
  // (see sparse/kernels.hpp's bit-compatibility contract).
  const bool wild = policy == UpdatePolicy::kWild;
  const std::span<double> wv = model.wild_view();
  const double eta_l1 = options.reg.eta_l1();
  const double eta_l2 = options.reg.eta_l2();

  const double train_seconds = detail::run_epochs(
      pool, threads, wv, recorder, /*first_epoch=*/1, options.epochs,
      [&](std::size_t epoch) {
        const double step = epoch_step(options, epoch);
        if ((epoch - 1) % interval == 0) {
          // Algorithm 1 lines 4–6: sync point — snapshot + full gradient.
          // Quiesced here (between pool.run fences), so the snapshot is
          // exact and reuses s's storage — no per-refresh allocation.
          model.snapshot_into(s);
          full_loss_gradient_parallel(pool, data, objective, s, mu, threads);
        }

        pool.run(threads, [&](std::size_t tid) {
          util::Rng rng(util::derive_seed(options.seed, epoch * 1000 + tid));
          const std::size_t iters = n * (tid + 1) / threads - n * tid / threads;
          for (std::size_t t = 0; t < iters; ++t) {
            const std::size_t i = util::uniform_index(rng, n);
            const auto x = data.row(i);
            const double y = data.label(i);
            if (wild && !options.svrg_skip_mu) {
              double margin_w = 0, margin_s = 0;
              sparse::sparse_dot_pair(wv, s, x, margin_w, margin_s);
              const double correction = objective.gradient_scale(margin_w, y) -
                                        objective.gradient_scale(margin_s, y);
              sparse::scale_then_sparse_axpy(wv, mu, step, eta_l1, eta_l2,
                                             step * correction, x);
              continue;
            }
            const auto idx = x.indices();
            const auto val = x.values();
            double margin_w = 0, margin_s = 0;
            for (std::size_t k = 0; k < idx.size(); ++k) {
              margin_w += model.load(idx[k]) * val[k];
              margin_s += s[idx[k]] * val[k];
            }
            const double correction = objective.gradient_scale(margin_w, y) -
                                      objective.gradient_scale(margin_s, y);
            for (std::size_t k = 0; k < idx.size(); ++k) {
              model.add(idx[k], -step * correction * val[k], policy);
            }
            if (!options.svrg_skip_mu) {
              // Algorithm 1 line 7's dense term: full-length pass every
              // iteration, performed lock-free like the rest of the update.
              for (std::size_t j = 0; j < d; ++j) {
                const double wj = model.load(j);
                model.add(j, -step * (mu[j] + options.reg.subgradient(wj)),
                          policy);
              }
            } else {
              for (std::size_t k = 0; k < idx.size(); ++k) {
                const std::size_t j = idx[k];
                model.add(j, -step * options.reg.subgradient(model.load(j)),
                          policy);
              }
            }
          }
        });

        if (options.svrg_skip_mu) {
          for (std::size_t j = 0; j < d; ++j) {
            model.add(j, -step * static_cast<double>(n) * mu[j], policy);
          }
        }
      },
      detail::no_fence);
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

namespace {

class SvrgAsgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "SVRG-ASGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.parallel = true, .variance_reduced = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_svrg_asgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                         ctx.observer, ctx.pool);
  }
};

ISASGD_REGISTER_SOLVER(SvrgAsgdSolver);

}  // namespace

}  // namespace isasgd::solvers
