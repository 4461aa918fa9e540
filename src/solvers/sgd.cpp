#include "solvers/sgd.hpp"

#include <span>
#include <utility>

#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "solvers/streaming_runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::solvers {

Trace run_sgd(const sparse::CsrMatrix& data,
              const objectives::Objective& objective,
              const SolverOptions& options, const EvalFn& eval,
              TrainingObserver* observer, const SnapshotHooks& hooks) {
  const std::size_t n = data.rows();
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  SharedModel model(data.dim());
  const std::span<const double> w = model.wild_view();
  TraceRecorder recorder("SGD", 1, options.step_size,
                         eval, observer);

  // Cross-epoch state: {w, rng}. The draw stream runs uninterrupted across
  // epochs, so the RNG words travel with every checkpoint.
  util::Rng rng(options.seed);
  if (hooks.resume) {
    model.assign(hooks.resume->model);
    rng = hooks.resume->get_rng("rng");
  }
  // The one worker's batch scratch and block of draws, allocated once for
  // the run. Rows are drawn a block ahead so the step driver can prefetch
  // them.
  std::vector<detail::Gathered> batch(b);
  std::vector<std::uint32_t> ids(sampling::BlockSequence::kDefaultBlockSize);

  const double train_seconds = detail::run_epochs(
      util::default_thread_pool(), /*team=*/1, w, recorder,
      hooks.first_epoch(), options.epochs,
      [&](std::size_t epoch) {
        // ⌈n/b⌉ full batches of uniform draws, drawn at most a block early
        // and never past the epoch's last batch, so the RNG words a
        // checkpoint captures are the epoch's own.
        std::size_t left = (n + b - 1) / b * b;
        // A serial run has no concurrent writer: kWild whatever the option.
        detail::hogwild_epoch(
            data, model, objective, options.reg, UpdatePolicy::kWild,
            epoch_step(options, epoch), batch,
            [&]() -> std::span<const std::uint32_t> {
              const std::size_t m = std::min(ids.size(), left);
              for (std::size_t k = 0; k < m; ++k) {
                ids[k] =
                    static_cast<std::uint32_t>(util::uniform_index(rng, n));
              }
              left -= m;
              return {ids.data(), m};
            },
            [](std::uint32_t i) { return i; },
            [](std::uint32_t, double) { return 1.0; });
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(hooks, "SGD", epoch, options.seed,
                              options.epochs, w, [&](SnapshotState& state) {
                                state.put_rng("rng", rng);
                              });
      });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

Trace run_sgd_streaming(const data::DataSource& source,
                        const objectives::Objective& objective,
                        const SolverOptions& options, const EvalFn& eval,
                        TrainingObserver* observer,
                        const SnapshotHooks& hooks) {
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  SharedModel model(source.dim());
  TraceRecorder recorder("SGD", 1, options.step_size,
                         eval, observer);
  sampling::ShardedSequence schedule(source.shard_sizes(), options.seed);
  // Cross-epoch state is the model alone: the schedule reseeds per epoch
  // from (seed, epoch) and there is no draw RNG on this path.
  if (hooks.resume) model.assign(hooks.resume->model);

  std::vector<detail::Gathered> batch(b);
  // One worker: the pool runs a team of 1 inline on this thread, so the
  // default pool spawns nothing.
  util::ThreadPool& pool = util::default_thread_pool();
  const double train_seconds = detail::run_epochs(
      pool, /*team=*/1, model.wild_view(), recorder, hooks.first_epoch(),
      options.epochs,
      [&](std::size_t epoch) {
        detail::shard_epoch(
            pool, /*team=*/1, source, schedule, epoch,
            [&](std::size_t, const data::Shard& shard,
                std::span<const std::uint32_t> row_order) {
              // The shard's row order is the one block of draws; its last
              // batch is whatever remains of it, so batches never span
              // shards.
              detail::hogwild_epoch(
                  *shard.matrix, model, objective, options.reg,
                  UpdatePolicy::kWild, epoch_step(options, epoch), batch,
                  [&] { return std::exchange(row_order, {}); },
                  [](std::uint32_t i) { return i; },
                  [](std::uint32_t, double) { return 1.0; });
            });
      },
      [&](std::size_t epoch) {
        source.end_epoch();
        detail::maybe_capture(hooks, "SGD", epoch, options.seed,
                              options.epochs, model.wild_view(),
                              [](SnapshotState&) {});
      });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

namespace {

class SgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "SGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.streaming = true, .checkpointable = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    if (ctx.sharded()) {
      return run_sgd_streaming(ctx.source, ctx.objective, ctx.options,
                               ctx.eval, ctx.observer, ctx.snapshot);
    }
    return run_sgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                   ctx.observer, ctx.snapshot);
  }
};

ISASGD_REGISTER_SOLVER(SgdSolver);

}  // namespace

}  // namespace isasgd::solvers
