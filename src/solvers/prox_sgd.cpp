#include "solvers/prox_sgd.hpp"

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "objectives/prox.hpp"
#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers {

Trace run_prox_sgd(const sparse::CsrMatrix& data,
                   const objectives::Objective& objective,
                   const SolverOptions& options, bool use_importance,
                   const EvalFn& eval, ProxReport* report,
                   TrainingObserver* observer, const SnapshotHooks& hooks) {
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  std::vector<double> w(d, 0.0);
  TraceRecorder recorder(use_importance ? "IS-PROX-SGD" : "PROX-SGD", 1,
                         options.step_size, eval, observer);

  // ---- Offline phase (IS only): Eq. 12 distribution + block stream ----
  util::Stopwatch setup;
  std::vector<double> weight(n, 1.0);  // 1/(n·p_i)
  std::unique_ptr<sampling::BlockSequence> seq;
  if (use_importance) {
    const std::vector<double> importance =
        detail::importance_weights(data, objective, options);
    const double total =
        std::accumulate(importance.begin(), importance.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double p = total > 0 ? importance[i] / total : 1.0 / double(n);
      weight[i] = p > 0 ? 1.0 / (static_cast<double>(n) * p) : 1.0;
    }
    // One persistent alias table; each epoch's i.i.d. draws stream from it
    // inside the epoch, seeded per epoch exactly like the retired
    // pre-materialized layout.
    seq = std::make_unique<sampling::BlockSequence>(
        sampling::BlockSequence::Mode::kIid, importance, n, options.seed);
  }
  recorder.add_setup_seconds(setup.seconds());

  // Per-coordinate prox clock: formally prox touches every coordinate every
  // step, but the off-support recursions have closed forms —
  //   L1: |w| shrinks by λη per step, absorbed at 0,
  //   L2: w scales by 1/(1+λη) per step,
  //   none: identity —
  // so the inner loop stays index-compressed (cf. svrg_lazy.hpp).
  std::vector<std::uint32_t> last(d, 0);
  const auto kind = options.reg.kind;
  util::Rng rng(options.seed);

  if (hooks.resume) {
    // Fence state is {w, rng}: the lazy prox clock is caught up and `last`
    // zeroed at every epoch end, and the IS stream (kIid) reseeds per epoch
    // from a distribution recomputed at setup. The uniform flavour's rng
    // draws continuously across epochs, so its words ride every snapshot
    // (the IS flavour never draws from it — restore is then a no-op).
    w = hooks.resume->model;
    rng = hooks.resume->get_rng("rng");
  }

  const std::string_view trace_name = use_importance ? "IS-PROX-SGD"
                                                     : "PROX-SGD";
  const double train_seconds = detail::run_epochs(
      util::default_thread_pool(), /*team=*/1, w, recorder,
      hooks.first_epoch(), options.epochs,
      [&](std::size_t epoch) {
        const double step = epoch_step(options, epoch);
        const double l1_shrink = step * options.reg.eta;
        const double l2_scale = 1.0 / (1.0 + step * options.reg.eta);

        auto catch_up = [&](std::size_t j, std::uint32_t m) {
          if (m == 0) return;
          switch (kind) {
            case objectives::Regularization::Kind::kNone:
              return;
            case objectives::Regularization::Kind::kL1:
              w[j] = objectives::soft_threshold(
                  w[j], static_cast<double>(m) * l1_shrink);
              return;
            case objectives::Regularization::Kind::kL2:
              w[j] *= std::pow(l2_scale, static_cast<double>(m));
              return;
          }
        };

        if (use_importance) {
          seq->begin_epoch(epoch, util::derive_seed(options.seed, epoch - 1));
        }
        for (std::uint32_t t = 1; t <= n; ++t) {
          const std::size_t i =
              use_importance
                  ? seq->next()
                  : static_cast<std::size_t>(util::uniform_index(rng, n));
          const auto x = data.row(i);
          const auto idx = x.indices();
          const auto val = x.values();
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::size_t j = idx[k];
            catch_up(j, t - 1 - last[j]);
          }
          const double margin = sparse::sparse_dot(w, x);
          const double g =
              objective.gradient_scale(margin, data.label(i)) * weight[i];
          // Zhao–Zhang step: gradient at the IS-weighted step, then the
          // prox of the *base* λ·ηr (the reg is not importance-weighted).
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::size_t j = idx[k];
            w[j] = objectives::prox(options.reg, w[j] - step * g * val[k],
                                    step);
            last[j] = t;
          }
        }
        for (std::size_t j = 0; j < d; ++j) {
          catch_up(j, static_cast<std::uint32_t>(n) - last[j]);
          last[j] = 0;
        }
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(hooks, trace_name, epoch, options.seed,
                              options.epochs, w, [&](SnapshotState& state) {
                                state.put_rng("rng", rng);
                              });
      });

  {
    ProxReport diagnostics;
    std::size_t zeros = 0;
    for (double v : w) zeros += v == 0.0;
    diagnostics.sparsity = static_cast<double>(zeros) / static_cast<double>(d);
    if (report) *report = diagnostics;
    if (observer) observer->on_diagnostics(diagnostics);
  }
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(train_seconds);
}

namespace {

/// Registers the uniform and importance-sampled flavours under their own
/// names — living proof the registry takes solvers the Algorithm enum never
/// knew about.
class ProxSgdSolver final : public Solver {
 public:
  ProxSgdSolver(std::string_view name, bool use_importance)
      : name_(name), use_importance_(use_importance) {}

  std::string_view name() const noexcept override { return name_; }
  SolverCapabilities capabilities() const noexcept override {
    return {.importance_sampling = use_importance_, .proximal = true,
            .checkpointable = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_prox_sgd(ctx.data(), ctx.objective, ctx.options, use_importance_,
                        ctx.eval, /*report=*/nullptr, ctx.observer,
                        ctx.snapshot);
  }

 private:
  std::string_view name_;
  bool use_importance_;
};

const SolverRegistration prox_sgd_registration{
    std::make_unique<ProxSgdSolver>("PROX-SGD", false)};
const SolverRegistration is_prox_sgd_registration{
    std::make_unique<ProxSgdSolver>("IS-PROX-SGD", true)};

}  // namespace

}  // namespace isasgd::solvers
