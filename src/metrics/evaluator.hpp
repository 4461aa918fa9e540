// Model scoring: the paper's two metrics (§4 "Metrics").
//
//   RMSE       — "objective value as the error": √F(w) with
//                F(w) = (1/n)·Σ φ_i(w) + η·r(w).
//   error rate — misclassification fraction (classification objectives).
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::metrics {

/// Scores snapshots of a model against a dataset + objective. Thread count
/// parallelises the O(nnz) evaluation pass (the pass is outside the solvers'
/// timed windows, so this only affects bench wall time, not results).
///
/// Works against any data::DataSource, shard by shard: each shard's rows
/// are split evenly over the scoring threads, and the per-thread sums are
/// added in shard, then thread, order. A resident source (in memory, or a
/// file-backed one whose materialize() already cached the matrix) is
/// scored straight from materialize() over those same row ranges, so its
/// results are bit-equal to scoring its shards. A non-resident source is
/// scored through shard() with the next shard prefetching in the
/// background, so evaluation obeys the same memory budget as training.
///
/// Out-of-core cost note: on a non-resident source whose budget is smaller
/// than the file, every evaluate() call re-reads the whole file — so the
/// default one-score-per-epoch trace doubles a training epoch's I/O and
/// competes with the training loop for cache slots. The scoring pass stays
/// outside the solvers' timed windows (traces are unaffected), but
/// wall-clock-sensitive out-of-core runs should score sparingly (e.g. an
/// observer that skips epochs).
///
/// Workers come from `pool` when one is provided (the Trainer passes its
/// ExecutionContext's pool, so scoring shares the solvers' persistent
/// workers); a pool-less Evaluator with threads > 1 creates a private pool
/// at construction — either way no evaluate() call ever spawns threads on
/// the hot path, and evaluate() itself mutates no Evaluator state, so
/// concurrent calls are safe (they serialise on the pool).
class Evaluator {
 public:
  /// Classic in-memory form: wraps `data` in an internal single-shard
  /// source. `data` must outlive the Evaluator (as before).
  Evaluator(const sparse::CsrMatrix& data,
            const objectives::Objective& objective,
            objectives::Regularization reg, std::size_t threads = 1,
            util::ThreadPool* pool = nullptr);

  /// Source form: scores shard-by-shard. `source` must outlive the
  /// Evaluator.
  Evaluator(const data::DataSource& source,
            const objectives::Objective& objective,
            objectives::Regularization reg, std::size_t threads = 1,
            util::ThreadPool* pool = nullptr);

  [[nodiscard]] solvers::EvalResult evaluate(std::span<const double> w) const;

  /// Adapter for the solver API.
  [[nodiscard]] solvers::EvalFn as_fn() const {
    return [this](std::span<const double> w) { return evaluate(w); };
  }

 private:
  const data::DataSource* source_;  ///< never null
  const objectives::Objective& objective_;
  objectives::Regularization reg_;
  std::size_t threads_;
  util::ThreadPool* pool_;  ///< shared pool (not owned), or null
  /// Backs the CsrMatrix constructor (shared_ptr keeps the Evaluator
  /// copyable, as for owned_pool_).
  std::shared_ptr<const data::InMemorySource> owned_source_;
  /// Private pool for the pool-less parallel case (created at construction;
  /// shared_ptr keeps the Evaluator copyable).
  std::shared_ptr<util::ThreadPool> owned_pool_;
};

}  // namespace isasgd::metrics
