#include "metrics/evaluator.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "sparse/kernels.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::metrics {

Evaluator::Evaluator(const sparse::CsrMatrix& data,
                     const objectives::Objective& objective,
                     objectives::Regularization reg, std::size_t threads,
                     util::ThreadPool* pool)
    : source_(nullptr),
      objective_(objective),
      reg_(reg),
      threads_(std::max<std::size_t>(1, threads)),
      pool_(pool),
      owned_source_(std::make_shared<const data::InMemorySource>(data)) {
  source_ = owned_source_.get();
  // Eager, not lazy: creating the private pool here (worker spawn itself
  // stays deferred inside ThreadPool) keeps evaluate() free of member
  // mutation, so concurrent evaluate() calls on one Evaluator stay safe —
  // they serialise on the pool's dispatch mutex.
  if (!pool_ && threads_ > 1) {
    owned_pool_ = std::make_shared<util::ThreadPool>();
  }
}

Evaluator::Evaluator(const data::DataSource& source,
                     const objectives::Objective& objective,
                     objectives::Regularization reg, std::size_t threads,
                     util::ThreadPool* pool)
    : source_(&source),
      objective_(objective),
      reg_(reg),
      threads_(std::max<std::size_t>(1, threads)),
      pool_(pool) {
  if (!pool_ && threads_ > 1) {
    owned_pool_ = std::make_shared<util::ThreadPool>();
  }
}

solvers::EvalResult Evaluator::evaluate(std::span<const double> w) const {
  const std::size_t n = source_->rows();
  const std::size_t shard_count = source_->shard_count();
  // A resident source is scored straight from its matrix, over the same
  // shard row ranges and per-shard thread split as the faulting path, so
  // both give the same bits, and a source that materialized for its solver
  // is not decoded again at every fence.
  const sparse::CsrMatrix* whole =
      source_->resident() ? &source_->materialize() : nullptr;
  double loss = 0;
  std::size_t miss = 0;

  for (std::size_t s = 0; s < shard_count; ++s) {
    data::ShardPtr shard;  // holds a faulted shard while it is scored
    const sparse::CsrMatrix* rows = whole;
    std::size_t first = source_->shard_begin(s);
    if (!whole) {
      if (s + 1 < shard_count) source_->prefetch(s + 1);
      shard = source_->shard(s);
      rows = shard->matrix.get();
      first = 0;
    }
    const std::size_t shard_n = source_->shard_rows(s);
    const std::size_t threads =
        std::min(threads_, std::max<std::size_t>(1, shard_n));
    std::vector<double> loss_acc(threads, 0.0);
    std::vector<std::size_t> miss_acc(threads, 0);

    auto score_range = [&](std::size_t tid) {
      const std::size_t begin = first + shard_n * tid / threads;
      const std::size_t end = first + shard_n * (tid + 1) / threads;
      double local_loss = 0;
      std::size_t local_miss = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const auto x = rows->row(i);
        const double y = rows->label(i);
        const double margin = sparse::sparse_dot(w, x);
        local_loss += objective_.loss(margin, y);
        if (objective_.is_classification() &&
            objective_.predict(margin) != y) {
          ++local_miss;
        }
      }
      loss_acc[tid] = local_loss;
      miss_acc[tid] = local_miss;
    };

    if (threads == 1) {
      score_range(0);
    } else {
      util::ThreadPool* pool = pool_ ? pool_ : owned_pool_.get();
      pool->run(threads, score_range);
    }

    for (std::size_t tid = 0; tid < threads; ++tid) {
      loss += loss_acc[tid];
      miss += miss_acc[tid];
    }
  }

  solvers::EvalResult result;
  result.objective =
      (n ? loss / static_cast<double>(n) : 0.0) + reg_.value(w);
  result.rmse = std::sqrt(std::max(result.objective, 0.0));
  result.error_rate =
      objective_.is_classification()
          ? (n ? static_cast<double>(miss) / static_cast<double>(n) : 0.0)
          : std::numeric_limits<double>::quiet_NaN();
  return result;
}

}  // namespace isasgd::metrics
