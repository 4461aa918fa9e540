#include "solvers/asgd.hpp"

#include <atomic>
#include <span>
#include <utility>

#include "core/numa.hpp"
#include "partition/balancer.hpp"
#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "solvers/streaming_runner.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {

Trace run_asgd(const sparse::CsrMatrix& data,
               const objectives::Objective& objective,
               const SolverOptions& options, const EvalFn& eval,
               TrainingObserver* observer, util::ThreadPool* pool,
               const core::NumaPolicy* numa) {
  const std::size_t n = data.rows();
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  TraceRecorder recorder("ASGD", threads,
                         options.step_size, eval, observer);

  // Shuffled contiguous shards: worker tid owns rows
  // order[n·tid/threads .. n·(tid+1)/threads).
  const std::vector<std::uint32_t> order =
      partition::random_shuffle(n, options.seed ^ 0xa5a5);
  std::vector<std::size_t> boundary(threads + 1);
  for (std::size_t a = 0; a <= threads; ++a) boundary[a] = n * a / threads;

  // NUMA placement (inactive single-node): ASGD's shards are uniform, so
  // row counts stand in for IS-ASGD's Φ totals when balancing shards over
  // nodes. See run_is_asgd for the full rationale.
  std::vector<double> shard_mass(threads);
  for (std::size_t a = 0; a < threads; ++a) {
    shard_mass[a] = static_cast<double>(boundary[a + 1] - boundary[a]);
  }
  const core::NumaPlacement placement =
      core::plan_placement(numa, shard_mass, data.dim());
  SharedModel model(data.dim(), placement);
  util::ThreadPool& team_pool = detail::pool_or_default(pool);
  if (placement.active) {
    team_pool.set_worker_cpus(core::worker_cpu_plan(placement, threads));
  }

  // Per-worker RNG streams, padded to avoid false sharing.
  std::vector<util::CachePadded<util::Rng>> rngs(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    rngs[tid].value.reseed(util::derive_seed(options.seed, tid));
  }
  // Per-worker batch scratch and a block of draws, allocated once for the
  // run — the epoch body must stay allocation-free. Rows are drawn a block
  // ahead so the step driver can prefetch them.
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  std::vector<std::vector<detail::Gathered>> batches(threads);
  std::vector<std::vector<std::uint32_t>> draws(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    batches[tid].resize(b);
    draws[tid].resize(sampling::BlockSequence::kDefaultBlockSize);
  }

  const double train_seconds = detail::run_epochs(
      team_pool, threads, model.wild_view(), recorder, /*first_epoch=*/1,
      options.epochs,
      [&](std::size_t epoch) {
        team_pool.run(threads, [&](std::size_t tid) {
          const std::size_t begin = boundary[tid], end = boundary[tid + 1];
          const std::size_t local_n = end - begin;
          if (local_n == 0) return;
          util::Rng& rng = rngs[tid].value;
          std::vector<std::uint32_t>& ids = draws[tid];
          // ⌈local_n/b⌉ full batches of uniform draws from the worker's
          // shard, drawn at most a block early and never past the epoch's
          // last batch, so the next epoch's stream does not shift.
          std::size_t left = (local_n + b - 1) / b * b;
          // The schedule is a pure function of the epoch, so every worker
          // derives the same λ locally — no shared decay state to race on.
          detail::hogwild_epoch(
              data, model, objective, options.reg, options.update_policy,
              epoch_step(options, epoch), batches[tid],
              [&]() -> std::span<const std::uint32_t> {
                const std::size_t m = std::min(ids.size(), left);
                for (std::size_t k = 0; k < m; ++k) {
                  ids[k] = order[begin + util::uniform_index(rng, local_n)];
                }
                left -= m;
                return {ids.data(), m};
              },
              [](std::uint32_t i) { return i; },
              [](std::uint32_t, double) { return 1.0; });
        });
      },
      detail::no_fence);
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

Trace run_asgd_streaming(const data::DataSource& source,
                         const objectives::Objective& objective,
                         const SolverOptions& options, const EvalFn& eval,
                         TrainingObserver* observer, util::ThreadPool* pool) {
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  SharedModel model(source.dim());
  TraceRecorder recorder("ASGD", threads,
                         options.step_size, eval, observer);
  sampling::ShardedSequence schedule(source.shard_sizes(), options.seed);
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  // Per-worker batch scratch, allocated once for the whole run: the shard
  // loop is inside the timed window, so per-shard allocations would tax the
  // very throughput bench/streaming measures.
  std::vector<std::vector<detail::Gathered>> batches(threads);
  for (auto& scratch : batches) scratch.resize(b);

  util::ThreadPool& team_pool = detail::pool_or_default(pool);
  const double train_seconds = detail::run_epochs(
      team_pool, threads, model.wild_view(), recorder, /*first_epoch=*/1,
      options.epochs,
      [&](std::size_t epoch) {
        detail::shard_epoch(
            team_pool, threads, source, schedule, epoch,
            [&](std::size_t tid, const data::Shard& shard,
                std::span<const std::uint32_t> row_order) {
              // Worker tid owns the contiguous slice [begin, end) of this
              // shard's row order — a without-replacement split, the
              // shard-local analog of run_asgd's per-worker dataset shards.
              const std::size_t local_n = row_order.size();
              const std::size_t begin = local_n * tid / threads;
              const std::size_t end = local_n * (tid + 1) / threads;
              if (begin == end) return;
              // The slice is the worker's one block of draws; its last
              // batch is whatever remains of it.
              std::span<const std::uint32_t> slice =
                  row_order.subspan(begin, end - begin);
              detail::hogwild_epoch(
                  *shard.matrix, model, objective, options.reg,
                  options.update_policy, epoch_step(options, epoch),
                  batches[tid], [&] { return std::exchange(slice, {}); },
                  [](std::uint32_t i) { return i; },
                  [](std::uint32_t, double) { return 1.0; });
            });
      },
      [&](std::size_t) { source.end_epoch(); });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

namespace {

class AsgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "ASGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.parallel = true, .streaming = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    if (ctx.sharded()) {
      return run_asgd_streaming(ctx.source, ctx.objective, ctx.options,
                                ctx.eval, ctx.observer, ctx.pool);
    }
    return run_asgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                    ctx.observer, ctx.pool, ctx.numa);
  }
};

ISASGD_REGISTER_SOLVER(AsgdSolver);

}  // namespace

}  // namespace isasgd::solvers
