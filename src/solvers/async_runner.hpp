// The step driver and the epoch loop shared by the wall-clock solvers.
//
// Within an epoch the workers are fully lock-free (that is the algorithm
// under study); at epoch boundaries the pool quiesces so the model can be
// scored against a stable snapshot, with the training clock paused —
// evaluation cost never pollutes the wall-clock traces the paper's Figures
// 4–5 are built from. run_epochs below is that loop, for serial and
// parallel solvers alike.
//
// Workers come from a persistent util::ThreadPool (normally the one owned
// by the caller's core::ExecutionContext) instead of being spawned per
// call: ThreadPool::run(team, fn) is the fence primitive — its return means
// every worker arrived, and the next dispatch is the release. Thread
// creation happens at most once per pool lifetime, outside the steady-state
// timed windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "objectives/objective.hpp"
#include "sampling/sequence.hpp"
#include "solvers/model.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dispatch.hpp"
#include "sparse/kernels.hpp"
#include "util/barrier.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers::detail {

/// Resolves the pool a solver run should use: the context-provided one, or
/// the process-wide fallback for direct run_* callers that hold none.
inline util::ThreadPool& pool_or_default(util::ThreadPool* pool) {
  return pool ? *pool : util::default_thread_pool();
}

/// Margin dot for the gather half of an async step — the ONE place the
/// wild-vs-atomic read dispatch lives: under the kWild fast lane the read
/// goes through the SIMD sparse_dot on the raw wild_view; every other
/// discipline keeps relaxed per-element atomic loads. See model.hpp's
/// wild_view contract.
inline double gather_margin(const SharedModel& model,
                            sparse::SparseVectorView x, bool wild) noexcept {
  // Through the runtime-dispatched table directly: the per-call atomic load
  // in the kernels.cpp forwarders is cheap but not free, and this is the
  // hottest read in the library.
  return wild ? sparse::kernels::active().sparse_dot(model.wild_view(), x)
              : model.sparse_dot(x);
}

/// The write half of an async stochastic step — the ONE place the
/// regularized Hogwild coordinate update lives: under kWild the fused
/// ISASGD_RESTRICT kernel runs on the raw wild_view (bit-identical
/// per-coordinate arithmetic, see sparse/kernels.hpp); every other
/// discipline takes the per-element load → subgradient → add() path.
inline void apply_update(SharedModel& model, sparse::SparseVectorView x,
                         double step, double g,
                         const objectives::Regularization& reg,
                         UpdatePolicy policy) noexcept {
  if (policy == UpdatePolicy::kWild) {
    sparse::kernels::active().sparse_dot_residual_axpy(
        model.wild_view(), x, step, g, reg.eta_l1(), reg.eta_l2());
    return;
  }
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const std::size_t c = idx[j];
    const double wc = model.load(c);
    model.add(c, -step * (g * val[j] + reg.subgradient(wc)), policy);
  }
}

/// Hints every cache line of [first, last] into the cache (read intent).
inline void prefetch_lines(const void* first, const void* last) noexcept {
  const auto end = reinterpret_cast<std::uintptr_t>(last);
  for (auto p = reinterpret_cast<std::uintptr_t>(first) &
                ~(util::kCacheLineSize - 1);
       p <= end; p += util::kCacheLineSize) {
    __builtin_prefetch(reinterpret_cast<const void*>(p));
  }
}

/// Runs `step(k)` for k = 0 … m − 1 while prefetching what later steps will
/// load. `row_at(k)` is the row of `rows` that step k trains on; the caller
/// knows it a whole block ahead (a BlockSequence block, a buffer of RNG
/// draws, a shard's row order).
///
/// Why: on short rows a step waits on memory, not arithmetic. Its loads
/// form a chain — row id → row_ptr → index and value lines → model lines —
/// and each link waits for the one before, even when the model fits in L2.
/// Issuing each link a few steps early lets one step's arithmetic cover
/// the next steps' misses. The distances follow the chain: row_ptr 8 steps
/// ahead, so it is cached when the row's lines are hinted 4 ahead, so those
/// are cached when the model lines, whose addresses are the row's indices,
/// are hinted 2 ahead. Doubling them all measured the same and quadrupling
/// them slightly worse; the row hints or the model hints alone gave less
/// than half the gain (docs/PERF.md).
///
/// Only hints are issued and only `step` touches the model's values, so no
/// arithmetic moves: the results are bit-identical to the plain loop.
/// `model` is read for addresses alone, so every UpdatePolicy may use this.
template <class RowAt, class StepFn>
inline void prefetched_steps(const sparse::CsrMatrix& rows,
                             const SharedModel& model, std::size_t m,
                             RowAt&& row_at, StepFn&& step) {
  constexpr std::size_t kRowPtrAhead = 8, kRowAhead = 4, kModelAhead = 2;
  const std::size_t* row_ptr = rows.row_ptr().data();
  const double* w = model.wild_view().data();
  for (std::size_t k = 0; k < m; ++k) {
    if (k + kRowPtrAhead < m) {
      __builtin_prefetch(row_ptr + row_at(k + kRowPtrAhead));
    }
    if (k + kRowAhead < m) {
      const sparse::SparseVectorView x = rows.row(row_at(k + kRowAhead));
      if (!x.empty()) {
        prefetch_lines(&x.indices().front(), &x.indices().back());
        prefetch_lines(&x.values().front(), &x.values().back());
      }
    }
    if (k + kModelAhead < m) {
      for (const sparse::index_t c :
           rows.row(row_at(k + kModelAhead)).indices()) {
        __builtin_prefetch(w + c);
      }
    }
    step(k);
  }
}

/// One gathered draw of an open mini-batch: its row, its gradient scale
/// against the live model, and its step weight. A cache line each: every
/// worker writes its open batch at every step, and two workers' scratch
/// vectors can be neighbours on the heap, so no line may hold two entries.
struct alignas(util::kCacheLineSize) Gathered {
  sparse::SparseVectorView x;
  double g;
  double weight;
};

/// One worker's share of a Hogwild epoch — the ONE step loop of SGD,
/// IS-SGD, ASGD and IS-ASGD at every batch size b = batch.size(): each
/// IS-ASGD and ASGD worker (in memory and streaming), and serial SGD (in
/// memory and shard-major) and IS-SGD as the one worker of their run.
/// `next_block()` hands out the worker's draws a block at a time and ends
/// the epoch with an empty span; `row_of(draw)` is the draw's row of `rows`
/// and `weigh(draw, g)` its step weight, given its gradient scale g (which
/// adaptive IS records). Consecutive draws form the batches, across block
/// boundaries, and the epoch's last batch is whatever remains. Every draw
/// of a batch is gathered against the live model before the batch is
/// applied at step λ·weight/|batch|; b = 1 is a batch of one, and ÷1 is
/// exact, so it is the paper's one-sample step bit for bit. `policy` is the
/// write discipline: the parallel solvers pass options.update_policy, the
/// serial ones kWild, since a serial run has no concurrent writer (see
/// SharedModel::wild_view).
template <class NextBlock, class RowOf, class Weigh>
void hogwild_epoch(const sparse::CsrMatrix& rows, SharedModel& model,
                   const objectives::Objective& objective,
                   const objectives::Regularization& reg, UpdatePolicy policy,
                   double lambda, std::span<Gathered> batch,
                   NextBlock&& next_block, RowOf&& row_of, Weigh&& weigh) {
  const bool wild = policy == UpdatePolicy::kWild;
  std::size_t open = 0;  // draws gathered into the current batch
  const auto apply = [&] {
    const double size = static_cast<double>(open);
    for (const Gathered& d : batch.first(open)) {
      apply_update(model, d.x, lambda * d.weight / size, d.g, reg, policy);
    }
    open = 0;
  };
  for (auto block = next_block(); !block.empty(); block = next_block()) {
    prefetched_steps(
        rows, model, block.size(),
        [&](std::size_t k) { return row_of(block[k]); },
        [&](std::size_t k) {
          const std::size_t i = row_of(block[k]);
          const sparse::SparseVectorView x = rows.row(i);
          const double g = objective.gradient_scale(
              gather_margin(model, x, wild), rows.label(i));
          batch[open++] = {x, g, weigh(block[k], g)};
          if (open == batch.size()) apply();
        });
  }
  if (open > 0) apply();
}

/// The ONE translation from the option-level sequence mode to the sampling
/// layer's block mode. Adaptive importance always takes the i.i.d. stream —
/// its per-refresh rebuild() needs it; the shuffled modes' multiset is
/// fixed at construction.
inline sampling::BlockSequence::Mode block_mode(const SolverOptions& options) {
  if (options.adaptive_importance) return sampling::BlockSequence::Mode::kIid;
  switch (options.sequence_mode) {
    case SolverOptions::SequenceMode::kStratified:
      return sampling::BlockSequence::Mode::kStratified;
    case SolverOptions::SequenceMode::kReshuffle:
      return sampling::BlockSequence::Mode::kReshuffle;
    case SolverOptions::SequenceMode::kPregenerate:
      break;
  }
  return sampling::BlockSequence::Mode::kIid;
}

/// A fence hook that does nothing, for runs with no fence-time work.
inline constexpr auto no_fence = [](std::size_t) noexcept {};

/// The ONE epoch loop of every wall-clock solver. `epoch_body(epoch)` runs
/// epoch `epoch` (1-based) to completion on `w`'s model: a parallel body
/// dispatches pool.run(team, …), whose return is the fence; a serial caller
/// passes team 1 and steps inline. `fence(epoch)` then runs with the clock
/// paused, before the epoch's point is recorded: checkpoint capture and a
/// source's end_epoch() go there, off the traces the paper's Figures 4–5
/// are built from. Every record() happens at a fence, so the raw model view
/// is an exact snapshot. Returns the total training seconds.
///
/// A resumed run (snapshot.hpp) starts at `first_epoch` = fence + 1 and
/// records the restored model as epoch first_epoch − 1, so the bodies see
/// the uninterrupted run's epoch indices (per-epoch seeds and refresh
/// cadences stay bit-compatible); first_epoch > epochs runs no epoch. A
/// stop requested at the initial point runs no body and no fence.
template <class EpochBodyFn, class FenceFn>
double run_epochs(util::ThreadPool& pool, std::size_t team,
                  std::span<const double> w, TraceRecorder& recorder,
                  std::size_t first_epoch, std::size_t epochs,
                  EpochBodyFn&& epoch_body, FenceFn&& fence) {
  recorder.record(first_epoch - 1, 0.0, w);
  if (recorder.stop_requested()) return 0.0;

  // Warm the pool before the clock starts: on a cold context the one-time
  // worker spawn must not land inside the first epoch's timed window.
  pool.reserve(team);

  util::AccumulatingTimer clock;
  for (std::size_t epoch = first_epoch; epoch <= epochs; ++epoch) {
    clock.start();
    epoch_body(epoch);
    clock.stop();
    fence(epoch);
    recorder.record(epoch, clock.seconds(), w);
    if (recorder.stop_requested()) break;
  }
  return clock.seconds();
}

}  // namespace isasgd::solvers::detail
