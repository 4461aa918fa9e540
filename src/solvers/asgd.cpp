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

namespace {

/// Applies one gathered mini-batch to the shared model — each row through
/// detail::apply_update, the single home of the Hogwild coordinate update
/// (wild fast lane included). Shared by the in-memory and streaming
/// drivers so the update rule can only ever change in one place.
inline void apply_batch(SharedModel& model, const sparse::CsrMatrix& rows,
                        std::span<const std::pair<std::size_t, double>> batch,
                        double batch_step,
                        const objectives::Regularization& reg,
                        UpdatePolicy policy) {
  for (const auto& [i, g] : batch) {
    detail::apply_update(model, rows.row(i), batch_step, g, reg, policy);
  }
}

}  // namespace

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
  if (placement.active) {
    detail::pool_or_default(pool).set_worker_cpus(
        core::worker_cpu_plan(placement, threads));
  }

  // Per-worker RNG streams, padded to avoid false sharing.
  std::vector<util::CachePadded<util::Rng>> rngs(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    rngs[tid].value.reseed(util::derive_seed(options.seed, tid));
  }
  const UpdatePolicy policy = options.update_policy;
  const bool wild = policy == UpdatePolicy::kWild;
  // Per-worker gather scratch, allocated once for the run — the epoch body
  // must stay allocation-free.
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  std::vector<std::vector<std::pair<std::size_t, double>>> batches(threads);
  for (auto& scratch : batches) scratch.resize(b);
  // b = 1 draws its rows a block ahead, so the step driver can prefetch.
  constexpr std::size_t kDrawBlock = 1024;
  std::vector<std::vector<std::uint32_t>> draws(b == 1 ? threads : 0);
  for (auto& scratch : draws) scratch.resize(kDrawBlock);

  const double train_seconds = detail::run_epoch_fenced(
      detail::pool_or_default(pool), model, recorder, options.epochs, threads,
      [&](std::size_t tid, std::size_t epoch) {
        const std::size_t begin = boundary[tid], end = boundary[tid + 1];
        const std::size_t local_n = end - begin;
        if (local_n == 0) return;
        util::Rng& rng = rngs[tid].value;
        // The schedule is a pure function of the epoch, so every worker
        // derives the same λ locally — no shared decay state to race on.
        const double lambda = epoch_step(options, epoch);
        if (b == 1) {
          // The paper's kernel: the same draws in the same order as the
          // loop below, at most a block early and never past the epoch's
          // local_n, and step λ (λ / 1 is λ bit for bit).
          std::uint32_t* ids = draws[tid].data();
          for (std::size_t done = 0; done < local_n;) {
            const std::size_t m = std::min(kDrawBlock, local_n - done);
            for (std::size_t k = 0; k < m; ++k) {
              ids[k] = order[begin + util::uniform_index(rng, local_n)];
            }
            detail::prefetched_steps(
                data, model, m, [&](std::size_t k) { return ids[k]; },
                [&](std::size_t k) {
                  const auto x = data.row(ids[k]);
                  const double margin = detail::gather_margin(model, x, wild);
                  detail::apply_update(
                      model, x, lambda,
                      objective.gradient_scale(margin, data.label(ids[k])),
                      options.reg, policy);
                });
            done += m;
          }
          return;
        }
        const std::size_t updates = (local_n + b - 1) / b;
        std::vector<std::pair<std::size_t, double>>& batch = batches[tid];
        for (std::size_t u = 0; u < updates; ++u) {
          // Gather the mini-batch's gradient scales against the current
          // (racy) model state, then apply; b = 1 is the paper's kernel.
          for (std::size_t k = 0; k < b; ++k) {
            const std::size_t i =
                order[begin + util::uniform_index(rng, local_n)];
            const double margin = detail::gather_margin(model, data.row(i), wild);
            batch[k] = {i, objective.gradient_scale(margin, data.label(i))};
          }
          apply_batch(model, data, batch, lambda / static_cast<double>(b),
                      options.reg, policy);
        }
      });
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
  const UpdatePolicy policy = options.update_policy;
  const bool wild = policy == UpdatePolicy::kWild;
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  // Per-worker gather scratch, allocated once for the whole run: the shard
  // loop is inside the timed window, so per-shard allocations would tax the
  // very throughput bench/streaming measures.
  std::vector<std::vector<std::pair<std::size_t, double>>> batches(threads);
  for (auto& scratch : batches) scratch.resize(b);

  const double train_seconds = detail::run_epoch_fenced_sharded(
      detail::pool_or_default(pool), source, schedule, model, recorder,
      options.epochs, threads,
      [&](std::size_t tid, const data::Shard& shard,
          std::span<const std::uint32_t> row_order, std::size_t epoch) {
        // Worker tid owns the contiguous slice [begin, end) of this shard's
        // row order — a without-replacement split, the shard-local analog of
        // run_asgd's per-worker dataset shards.
        const std::size_t local_n = row_order.size();
        const std::size_t begin = local_n * tid / threads;
        const std::size_t end = local_n * (tid + 1) / threads;
        if (begin == end) return;
        const sparse::CsrMatrix& rows = *shard.matrix;
        const double lambda = epoch_step(options, epoch);
        if (b == 1) {
          detail::prefetched_steps(
              rows, model, end - begin,
              [&](std::size_t k) { return row_order[begin + k]; },
              [&](std::size_t k) {
                const std::size_t i = row_order[begin + k];
                const auto x = rows.row(i);
                const double margin = detail::gather_margin(model, x, wild);
                detail::apply_update(
                    model, x, lambda,
                    objective.gradient_scale(margin, rows.label(i)),
                    options.reg, policy);
              });
          return;
        }
        std::vector<std::pair<std::size_t, double>>& batch = batches[tid];
        for (std::size_t at = begin; at < end; at += b) {
          const std::size_t count = std::min(b, end - at);
          for (std::size_t k = 0; k < count; ++k) {
            const std::size_t i = row_order[at + k];
            const double margin = detail::gather_margin(model, rows.row(i), wild);
            batch[k] = {i, objective.gradient_scale(margin, rows.label(i))};
          }
          apply_batch(model, rows, {batch.data(), count},
                      lambda / static_cast<double>(count), options.reg,
                      policy);
        }
      });
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
