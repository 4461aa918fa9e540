#include "solvers/is_sgd.hpp"

#include <cmath>
#include <memory>

#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers {

namespace {

/// 1/(n·p_i) step weights from an (unnormalised) importance vector.
std::vector<double> step_weights(std::span<const double> importance) {
  const std::size_t n = importance.size();
  double total = 0;
  for (double l : importance) total += l;
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = importance[i] > 0
                    ? total / (static_cast<double>(n) * importance[i])
                    : 1.0;
  }
  return weight;
}

/// Applies the Eq.-11 floor (1e-3 of the mean, so 1/(n·p_i) stays bounded
/// on already-fit samples) to a norms vector in place.
void floor_norms(std::vector<double>& norms) {
  double mean = 0;
  for (double v : norms) mean += v;
  mean /= static_cast<double>(norms.size());
  const double floor = 1e-3 * (mean > 0 ? mean : 1.0);
  for (double& v : norms) v = std::max(v, floor);
}

}  // namespace

Trace run_is_sgd(const sparse::CsrMatrix& data,
                 const objectives::Objective& objective,
                 const SolverOptions& options, const EvalFn& eval,
                 TrainingObserver* observer, const SnapshotHooks& hooks,
                 const data::RowStats* stats) {
  const std::size_t n = data.rows();
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  SharedModel model(data.dim());
  const std::span<const double> w = model.wild_view();
  TraceRecorder recorder("IS-SGD", 1,
                         options.step_size, eval, observer);

  // ---- Offline phase (Algorithm 2 lines 2–3), timed as setup ----
  util::Stopwatch setup;
  // Sidecar-fed setup when a pack carries row stats and the configured
  // importance is a function of ‖x_i‖² alone — same numbers, no data pass.
  const bool use_stats = stats != nullptr && detail::stats_feed_importance(options);
  std::vector<double> importance =
      use_stats
          ? detail::importance_weights_from_stats(*stats, 0, n, objective,
                                                  options)
          : detail::importance_weights(data, objective, options);
  std::vector<double> weight = step_weights(importance);
  // The sequence layer is streamed: one persistent BlockSequence replaces
  // the pre-materialized `epochs × n` index store — the alias table is
  // built once here (once per refresh in adaptive mode), and each epoch's
  // draws are produced block-by-block inside the epoch, bit-identical to
  // the old per-epoch SampleSequence layout (tests/block_sequence_test).
  using Mode = sampling::BlockSequence::Mode;
  const Mode m = detail::block_mode(options);
  const std::uint64_t seq_seed =
      m == Mode::kStratified ? options.seed ^ 0x57a7 : options.seed;
  // Adaptive runs refresh unconditionally at epoch 1, so building a table
  // from the static importance here would be setup work thrown away before
  // the first draw — the stream is created at that first refresh instead
  // (like is_asgd's per-worker streams).
  std::unique_ptr<sampling::BlockSequence> seq;
  if (!options.adaptive_importance) {
    seq = std::make_unique<sampling::BlockSequence>(m, importance, n,
                                                    seq_seed);
  }
  // Adaptive-importance (Eq. 11) amortisation state: the row norms are
  // dataset constants cached once; each gradient pass records the |φ'| it
  // already computed per visited sample, so the steady-state refresh is
  // O(n) instead of a second full O(nnz) margin sweep.
  std::vector<double> row_norm, last_g;
  bool refreshed_once = false;
  if (options.adaptive_importance) {
    row_norm.resize(n);
    if (stats != nullptr) {
      // norm() is sqrt(squared_norm()), so the sidecar feed is bit-identical.
      for (std::size_t i = 0; i < n; ++i) {
        row_norm[i] = std::sqrt(stats->row_squared_norm(i));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) row_norm[i] = data.row(i).norm();
    }
    last_g.assign(n, 0.0);
  }
  recorder.add_setup_seconds(setup.seconds());

  if (hooks.resume) {
    // Static mode carries no solver sections: `importance` was just
    // recomputed above (pure function of data/objective/options) and the
    // i.i.d. stream reseeds per epoch; only the shuffled modes hold state,
    // replayed through rewind_to. Adaptive mode restores its live vectors
    // and rebuilds the stream from the restored distribution.
    model.assign(hooks.resume->model);
    if (options.adaptive_importance) {
      last_g = hooks.resume->real_section("is.last_g");
      importance = hooks.resume->real_section("is.importance");
      refreshed_once = hooks.resume->word("is.refreshed") != 0;
      weight = step_weights(importance);
      if (refreshed_once) {
        seq = std::make_unique<sampling::BlockSequence>(Mode::kIid, importance,
                                                        n, options.seed);
      }
    }
    if (seq) seq->rewind_to(hooks.resume->epoch);
  }

  // ---- Training: SGD's step loop, only the index source + weight differ ----
  const bool adaptive = options.adaptive_importance;
  std::vector<detail::Gathered> batch(b);
  const double train_seconds = detail::run_epochs(
      util::default_thread_pool(), /*team=*/1, w, recorder,
      hooks.first_epoch(), options.epochs,
      [&](std::size_t epoch) {
        if (adaptive) {
          // Eq. 11 extension: refresh P from the live gradient norms,
          // inside the timed window on purpose — it is the cost the paper's
          // §2.2 dismisses as impractical (now amortised against the
          // preceding epoch's own margin computations).
          if ((epoch - 1) %
                  std::max<std::size_t>(1, options.adaptive_interval) ==
              0) {
            if (!refreshed_once) {
              // Exact first estimate: margins of the initial model.
              for (std::size_t i = 0; i < n; ++i) {
                const double margin = sparse::sparse_dot(w, data.row(i));
                last_g[i] = std::abs(
                    objective.gradient_scale(margin, data.label(i)));
              }
              refreshed_once = true;
            }
            for (std::size_t i = 0; i < n; ++i) {
              importance[i] = last_g[i] * row_norm[i];
            }
            floor_norms(importance);
            weight = step_weights(importance);
            if (seq) {
              seq->rebuild(importance);  // one build per weight change
            } else {
              seq = std::make_unique<sampling::BlockSequence>(
                  Mode::kIid, importance, n, options.seed);
            }
          }
          seq->begin_epoch(epoch,
                           util::derive_seed(options.seed, 7000 + epoch));
        } else if (m == Mode::kIid) {
          seq->begin_epoch(epoch, util::derive_seed(options.seed, epoch - 1));
        } else {
          seq->begin_epoch(epoch);
        }
        // The epoch's draws are the sequence's blocks; a draw's step weight
        // is 1/(n·p_i). A serial run has no concurrent writer: kWild
        // whatever the option.
        detail::hogwild_epoch(
            data, model, objective, options.reg, UpdatePolicy::kWild,
            epoch_step(options, epoch), batch,
            [&] { return seq->next_block(); },
            [](std::uint32_t i) { return i; },
            [&](std::uint32_t i, double g) {
              if (adaptive) last_g[i] = std::abs(g);
              return weight[i];
            });
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(
            hooks, "IS-SGD", epoch, options.seed, options.epochs, w,
            [&](SnapshotState& state) {
              if (adaptive) {
                state.reals["is.last_g"] = last_g;
                state.reals["is.importance"] = importance;
                state.words["is.refreshed"] = {refreshed_once ? 1u : 0u};
              }
            });
      });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

namespace {

class IsSgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "IS-SGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.importance_sampling = true, .checkpointable = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    return run_is_sgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                      ctx.observer, ctx.snapshot, ctx.source.row_stats());
  }
};

ISASGD_REGISTER_SOLVER(IsSgdSolver);

}  // namespace

}  // namespace isasgd::solvers
