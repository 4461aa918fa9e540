// Registry-path parity: pooled runs must reproduce the pre-refactor solver
// traces bit for bit under fixed seeds.
//
// Two independent guarantees are pinned here:
//   1. the persistent-pool epoch driver changes WHERE worker code runs, not
//      WHAT it computes — verified against in-test replicas of the
//      pre-refactor inner loops (frozen copies of the exact arithmetic the
//      seed solvers executed, subgradient call and all);
//   2. pool reuse across consecutive train() calls — and sharing one
//      ExecutionContext across Trainers — perturbs nothing and never
//      respawns threads (instrumentation counters).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/execution.hpp"
#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/synthetic.hpp"
#include "objectives/logistic.hpp"
#include "partition/balancer.hpp"
#include "partition/partition.hpp"
#include "sampling/sequence.hpp"
#include "solvers/asgd.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/is_asgd.hpp"
#include "solvers/is_sgd.hpp"
#include "solvers/schedule.hpp"
#include "solvers/sgd.hpp"
#include "util/rng.hpp"

namespace isasgd {
namespace {

sparse::CsrMatrix small_data() {
  data::SyntheticSpec spec;
  spec.rows = 300;
  spec.dim = 60;
  spec.mean_row_nnz = 8;
  return data::generate(spec);
}

/// `data` with every `stride`-th row and the last row emptied (labels
/// kept): zero-nonzero rows inside the matrix and at its end.
sparse::CsrMatrix with_empty_rows(const sparse::CsrMatrix& data,
                                  std::size_t stride) {
  std::vector<std::size_t> row_ptr{0};
  std::vector<sparse::index_t> col;
  std::vector<sparse::value_t> val;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (i % stride != 0 && i + 1 != data.rows()) {
      const auto x = data.row(i);
      col.insert(col.end(), x.indices().begin(), x.indices().end());
      val.insert(val.end(), x.values().begin(), x.values().end());
    }
    row_ptr.push_back(col.size());
  }
  return {data.dim(), std::move(row_ptr), std::move(col), std::move(val),
          data.labels()};
}

/// One dataset the single-thread loops are pinned on, with the shard size
/// of the chunked source the streaming loop reads it through.
struct ParityInput {
  std::string name;
  sparse::CsrMatrix data;
  std::size_t shard_rows;
};

/// The inputs every frozen loop below is checked on. Besides the original
/// fixture: 2,150 rows, so one epoch spans three 1,024-draw blocks, with
/// empty rows (the last row among them) and a 2-row last shard; and 5 rows,
/// fewer than a step's lookahead, in shards of 2, 2 and 1.
std::vector<ParityInput> parity_inputs() {
  std::vector<ParityInput> inputs;
  inputs.push_back({"small", small_data(), 96});
  data::SyntheticSpec spec;
  spec.rows = 2150;
  spec.dim = 400;
  spec.mean_row_nnz = 6;
  spec.seed = 99;
  inputs.push_back({"blocks+empty", with_empty_rows(data::generate(spec), 7),
                    1074});
  spec.rows = 5;
  spec.dim = 30;
  spec.seed = 5;
  inputs.push_back({"tiny", data::generate(spec), 2});
  return inputs;
}

solvers::SolverOptions base_options() {
  solvers::SolverOptions opt;
  opt.epochs = 3;
  opt.step_size = 0.2;
  opt.seed = 11;
  opt.keep_final_model = true;
  return opt;
}

const objectives::Regularization kReg = objectives::Regularization::l2(1e-3);

/// The batch sizes the single-thread loops are pinned at. 3 and 7 do not
/// divide 1,024, so on the 2,150-row input batches straddle draw blocks; 7
/// is larger than the 5-row input, so the importance-sampled and shard-major
/// loops take one short batch there, and in-memory SGD and ASGD one full
/// batch of 7 draws.
constexpr std::size_t kBatchSizes[] = {1, 3, 7};

solvers::SolverOptions pinned_options(std::size_t batch_size) {
  auto opt = base_options();
  opt.threads = 1;
  opt.batch_size = batch_size;
  opt.reg = kReg;  // the IS importance reads the regularizer's L term
  return opt;
}

/// w·x accumulated left to right, as every frozen loop below gathers it.
double frozen_margin(const std::vector<double>& w, sparse::SparseVectorView x) {
  double margin = 0;
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t k = 0; k < idx.size(); ++k) margin += w[idx[k]] * val[k];
  return margin;
}

/// The worker's relaxed load/add/store update of one row, replayed on a
/// plain vector (sequentially they are the same arithmetic).
void frozen_update(std::vector<double>& w, sparse::SparseVectorView x,
                   double step, double g) {
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const std::size_t c = idx[j];
    const double wc = w[c];
    w[c] = wc + -step * (g * val[j] + kReg.subgradient(wc));
  }
}

/// Frozen serial SGD inner loop (sgd.cpp): ⌈n/b⌉ batches of b uniform
/// draws each (the last one full too); every gradient scale of a batch is
/// gathered before the batch is applied at step λ / b.
std::vector<double> reference_sgd_model(const sparse::CsrMatrix& data,
                                        const objectives::Objective& objective,
                                        const solvers::SolverOptions& opt) {
  const std::size_t n = data.rows();
  const std::size_t b = opt.batch_size;
  std::vector<double> w(data.dim(), 0.0);
  util::Rng rng(opt.seed);
  std::vector<std::pair<std::size_t, double>> batch(b);
  for (std::size_t epoch = 1; epoch <= opt.epochs; ++epoch) {
    const double lambda = solvers::epoch_step(opt, epoch);
    for (std::size_t u = 0; u < (n + b - 1) / b; ++u) {
      for (auto& [i, g] : batch) {
        i = util::uniform_index(rng, n);
        g = objective.gradient_scale(frozen_margin(w, data.row(i)),
                                     data.label(i));
      }
      const double batch_step = lambda / static_cast<double>(b);
      for (const auto& [i, g] : batch) {
        frozen_update(w, data.row(i), batch_step, g);
      }
    }
  }
  return w;
}

/// Frozen serial IS-SGD inner loop (is_sgd.cpp, fixed importance): the
/// 1/(n·p_i) step weights of the importance, and each epoch's draws from a
/// BlockSequence built as run_is_sgd builds it, taken one next() at a time
/// in batches of b consecutive draws, the last one shorter: every draw's
/// gradient scale, then every update at step λ·weight[i] / |batch|.
std::vector<double> reference_is_sgd_model(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const solvers::SolverOptions& opt) {
  const std::size_t n = data.rows();
  const std::size_t b = opt.batch_size;
  const std::vector<double> importance =
      solvers::detail::importance_weights(data, objective, opt);
  double total = 0;
  for (const double l : importance) total += l;
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = importance[i] > 0
                    ? total / (static_cast<double>(n) * importance[i])
                    : 1.0;
  }
  sampling::BlockSequence seq(sampling::BlockSequence::Mode::kIid, importance,
                              n, opt.seed);
  std::vector<double> w(data.dim(), 0.0);
  std::vector<std::pair<std::size_t, double>> batch(b);
  for (std::size_t epoch = 1; epoch <= opt.epochs; ++epoch) {
    const double lambda = solvers::epoch_step(opt, epoch);
    seq.begin_epoch(epoch, util::derive_seed(opt.seed, epoch - 1));
    const std::size_t len = seq.epoch_length();
    for (std::size_t base = 0; base < len; base += b) {
      const std::size_t bsize = std::min(b, len - base);
      for (std::size_t k = 0; k < bsize; ++k) {
        const std::size_t i = seq.next();
        batch[k] = {i, objective.gradient_scale(frozen_margin(w, data.row(i)),
                                                data.label(i))};
      }
      for (std::size_t k = 0; k < bsize; ++k) {
        const auto [i, g] = batch[k];
        frozen_update(w, data.row(i),
                      lambda * weight[i] / static_cast<double>(bsize), g);
      }
    }
  }
  return w;
}

/// Frozen pre-refactor ASGD inner loop at threads = 1 (seed asgd.cpp): one
/// shard covering all rows and ⌈n/b⌉ batches of b uniform draws each (the
/// last one full too); every gradient scale of a batch is gathered before
/// the batch is applied at step λ / b.
std::vector<double> reference_asgd1_model(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const solvers::SolverOptions& opt) {
  const std::size_t n = data.rows();
  const std::size_t b = opt.batch_size;
  std::vector<double> w(data.dim(), 0.0);
  const std::vector<std::uint32_t> order =
      partition::random_shuffle(n, opt.seed ^ 0xa5a5);
  util::Rng rng(util::derive_seed(opt.seed, 0));
  std::vector<std::pair<std::size_t, double>> batch(b);
  for (std::size_t epoch = 1; epoch <= opt.epochs; ++epoch) {
    const double lambda = solvers::epoch_step(opt, epoch);
    for (std::size_t u = 0; u < (n + b - 1) / b; ++u) {
      for (auto& [i, g] : batch) {
        i = order[util::uniform_index(rng, n)];
        g = objective.gradient_scale(frozen_margin(w, data.row(i)),
                                     data.label(i));
      }
      const double batch_step = lambda / static_cast<double>(b);
      for (const auto& [i, g] : batch) {
        frozen_update(w, data.row(i), batch_step, g);
      }
    }
  }
  return w;
}

/// Frozen IS-ASGD inner loop at threads = 1 (is_asgd.cpp, fixed
/// importance): importance → PartitionPlan → the shard's i.i.d. stream
/// (the materialized SampleSequence that BlockSequence reproduces) → batches
/// of b consecutive draws, the last one shorter: every draw's margin and
/// gradient scale, then every update at step λ / (N·p_slot) / |batch|.
std::vector<double> reference_is_asgd1_model(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const solvers::SolverOptions& opt) {
  const std::vector<double> importance =
      solvers::detail::importance_weights(data, objective, opt);
  partition::PartitionOptions popt = opt.partition;
  popt.shuffle_seed = opt.seed ^ 0x1517;
  const partition::PartitionPlan plan(importance, 1, popt);
  const partition::Shard shard = plan.shard(0);
  const std::size_t n = shard.rows.size();
  const std::uint64_t seed = util::derive_seed(opt.seed, 101);
  const std::size_t b = opt.batch_size;
  std::vector<double> w(data.dim(), 0.0);
  std::vector<std::pair<std::size_t, double>> batch(b);
  for (std::size_t epoch = 1; epoch <= opt.epochs; ++epoch) {
    const double lambda = solvers::epoch_step(opt, epoch);
    const auto draws = sampling::SampleSequence::weighted(
        shard.probabilities, n, util::derive_seed(seed, epoch - 1));
    for (std::size_t base = 0; base < n; base += b) {
      const std::size_t bsize = std::min(b, n - base);
      for (std::size_t k = 0; k < bsize; ++k) {
        const std::size_t slot = draws[base + k];
        const std::size_t i = shard.rows[slot];
        batch[k] = {slot, objective.gradient_scale(
                              frozen_margin(w, data.row(i)), data.label(i))};
      }
      for (std::size_t k = 0; k < bsize; ++k) {
        const auto [slot, g] = batch[k];
        const double p = shard.probabilities[slot];
        const double weight =
            p > 0 ? 1.0 / (static_cast<double>(n) * p) : 1.0;
        const double step = lambda * weight / static_cast<double>(bsize);
        frozen_update(w, data.row(shard.rows[slot]), step, g);
      }
    }
  }
  return w;
}

/// Frozen shard-major loop: streaming ASGD at threads = 1 (asgd.cpp's shard
/// worker) and streaming SGD (sgd.cpp). Every epoch visits the shards, and
/// each shard's rows, in ShardedSequence order, in batches of b consecutive
/// rows (the shard's last one shorter), each gathered and then applied at
/// step λ / |batch|.
std::vector<double> reference_asgd1_streaming_model(
    const data::DataSource& source, const objectives::Objective& objective,
    const solvers::SolverOptions& opt) {
  const std::size_t b = opt.batch_size;
  std::vector<double> w(source.dim(), 0.0);
  sampling::ShardedSequence schedule(source.shard_sizes(), opt.seed);
  std::vector<std::pair<std::size_t, double>> batch(b);
  for (std::size_t epoch = 1; epoch <= opt.epochs; ++epoch) {
    schedule.begin_epoch(epoch);
    const double lambda = solvers::epoch_step(opt, epoch);
    for (const std::uint32_t s : schedule.shard_order()) {
      const data::ShardPtr shard = source.shard(s);
      const sparse::CsrMatrix& rows = *shard->matrix;
      const auto row_order = schedule.rows(s);
      for (std::size_t at = 0; at < row_order.size(); at += b) {
        const std::size_t count = std::min(b, row_order.size() - at);
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t i = row_order[at + k];
          batch[k] = {i, objective.gradient_scale(
                             frozen_margin(w, rows.row(i)), rows.label(i))};
        }
        const double batch_step = lambda / static_cast<double>(count);
        for (std::size_t k = 0; k < count; ++k) {
          frozen_update(w, rows.row(batch[k].first), batch_step,
                        batch[k].second);
        }
      }
    }
  }
  return w;
}

/// The final model of `solver` on `source` under `opt`, through the
/// registry. Solver::train refuses a batch larger than the data, so such a
/// batch reaches the loop through `run(opt, eval)`, the solver's run_*
/// entry point.
template <class RunFn>
std::vector<double> final_model(const data::DataSource& source,
                                const char* solver,
                                const objectives::Objective& objective,
                                const solvers::SolverOptions& opt,
                                RunFn&& run) {
  if (opt.batch_size > source.rows()) {
    const solvers::EvalFn no_score = [](std::span<const double>) {
      return solvers::EvalResult{};
    };
    return run(opt, no_score).final_model;
  }
  const auto trainer = core::TrainerBuilder()
                           .source(source)
                           .objective(objective)
                           .regularization(kReg)
                           .eval_threads(1)
                           .build();
  return trainer.train(solver, opt).final_model;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    // EXPECT_EQ on doubles is exact comparison — bit-for-bit parity.
    EXPECT_EQ(a[j], b[j]) << "coordinate " << j;
  }
}

TEST(PoolParity, SgdRegistryPathMatchesPreRefactorReference) {
  objectives::LogisticLoss loss;
  for (const ParityInput& input : parity_inputs()) {
    const data::InMemorySource whole(input.data);
    for (const std::size_t b : kBatchSizes) {
      SCOPED_TRACE(input.name + " b=" + std::to_string(b));
      const auto opt = pinned_options(b);
      expect_bitwise_equal(
          final_model(whole, "sgd", loss, opt,
                      [&](const auto& o, const auto& eval) {
                        return solvers::run_sgd(input.data, loss, o, eval);
                      }),
          reference_sgd_model(input.data, loss, opt));
    }
  }
}

TEST(PoolParity, IsSgdMatchesFrozenLoop) {
  objectives::LogisticLoss loss;
  for (const ParityInput& input : parity_inputs()) {
    const data::InMemorySource whole(input.data);
    for (const std::size_t b : kBatchSizes) {
      SCOPED_TRACE(input.name + " b=" + std::to_string(b));
      const auto opt = pinned_options(b);
      expect_bitwise_equal(
          final_model(whole, "is_sgd", loss, opt,
                      [&](const auto& o, const auto& eval) {
                        return solvers::run_is_sgd(input.data, loss, o, eval);
                      }),
          reference_is_sgd_model(input.data, loss, opt));
    }
  }
}

TEST(PoolParity, AsgdSingleThreadMatchesPreRefactorReference) {
  objectives::LogisticLoss loss;
  for (const ParityInput& input : parity_inputs()) {
    const data::InMemorySource whole(input.data);
    for (const std::size_t b : kBatchSizes) {
      SCOPED_TRACE(input.name + " b=" + std::to_string(b));
      const auto opt = pinned_options(b);
      expect_bitwise_equal(
          final_model(whole, "asgd", loss, opt,
                      [&](const auto& o, const auto& eval) {
                        return solvers::run_asgd(input.data, loss, o, eval);
                      }),
          reference_asgd1_model(input.data, loss, opt));
    }
  }
}

TEST(PoolParity, IsAsgdSingleThreadMatchesFrozenLoop) {
  objectives::LogisticLoss loss;
  for (const ParityInput& input : parity_inputs()) {
    const data::InMemorySource whole(input.data);
    for (const std::size_t b : kBatchSizes) {
      SCOPED_TRACE(input.name + " b=" + std::to_string(b));
      const auto opt = pinned_options(b);
      expect_bitwise_equal(
          final_model(whole, "is_asgd", loss, opt,
                      [&](const auto& o, const auto& eval) {
                        return solvers::run_is_asgd(input.data, loss, o, eval);
                      }),
          reference_is_asgd1_model(input.data, loss, opt));
    }
  }
}

TEST(PoolParity, StreamingAsgdSingleThreadMatchesFrozenLoop) {
  objectives::LogisticLoss loss;
  for (const ParityInput& input : parity_inputs()) {
    const data::InMemorySource chunked(input.data, input.shard_rows);
    ASSERT_GT(chunked.shard_count(), 1u);  // the shard-major loop runs
    for (const std::size_t b : kBatchSizes) {
      SCOPED_TRACE(input.name + " b=" + std::to_string(b));
      const auto opt = pinned_options(b);
      expect_bitwise_equal(
          final_model(chunked, "asgd", loss, opt,
                      [&](const auto& o, const auto& eval) {
                        return solvers::run_asgd_streaming(chunked, loss, o,
                                                           eval);
                      }),
          reference_asgd1_streaming_model(chunked, loss, opt));
    }
  }
}

TEST(PoolParity, StreamingSgdMatchesFrozenLoop) {
  objectives::LogisticLoss loss;
  for (const ParityInput& input : parity_inputs()) {
    const data::InMemorySource chunked(input.data, input.shard_rows);
    ASSERT_GT(chunked.shard_count(), 1u);  // the shard-major loop runs
    for (const std::size_t b : kBatchSizes) {
      SCOPED_TRACE(input.name + " b=" + std::to_string(b));
      const auto opt = pinned_options(b);
      expect_bitwise_equal(
          final_model(chunked, "sgd", loss, opt,
                      [&](const auto& o, const auto& eval) {
                        return solvers::run_sgd_streaming(chunked, loss, o,
                                                          eval);
                      }),
          reference_asgd1_streaming_model(chunked, loss, opt));
    }
  }
}

TEST(PoolParity, PoolReuseAcrossTrainCallsPerturbsNothing) {
  const auto data = small_data();
  objectives::LogisticLoss loss;
  const auto trainer = core::TrainerBuilder()
                           .data(data)
                           .objective(loss)
                           .regularization(kReg)
                           .eval_threads(1)
                           .build();
  auto opt = base_options();
  opt.threads = 1;
  // Same Trainer (same pool), many solvers back to back: a warm pool must
  // give the identical trace a cold one did.
  for (const char* solver : {"sgd", "asgd", "is_asgd", "is_sgd", "svrg_sgd",
                             "sag", "saga"}) {
    const auto first = trainer.train(solver, opt);
    const auto second = trainer.train(solver, opt);
    ASSERT_EQ(first.points.size(), second.points.size()) << solver;
    for (std::size_t e = 0; e < first.points.size(); ++e) {
      EXPECT_EQ(first.points[e].rmse, second.points[e].rmse) << solver;
      EXPECT_EQ(first.points[e].objective, second.points[e].objective)
          << solver;
    }
    expect_bitwise_equal(first.final_model, second.final_model);
  }
}

TEST(PoolParity, NoThreadRespawnAcrossConsecutiveTrainCalls) {
  const auto data = small_data();
  objectives::LogisticLoss loss;
  auto execution = std::make_shared<core::ExecutionContext>(1);
  const auto trainer = core::TrainerBuilder()
                           .data(data)
                           .objective(loss)
                           .regularization(kReg)
                           .eval_threads(1)
                           .execution(execution)
                           .build();
  auto opt = base_options();
  opt.threads = 4;
  (void)trainer.train("asgd", opt);
  const auto spawned_after_warmup = execution->pool().threads_spawned();
  const auto dispatched_after_warmup = execution->pool().jobs_dispatched();
  EXPECT_EQ(spawned_after_warmup, 4u);
  (void)trainer.train("asgd", opt);
  (void)trainer.train("is_asgd", opt);
  (void)trainer.train("svrg_asgd", opt);
  // Work kept flowing through the pool…
  EXPECT_GT(execution->pool().jobs_dispatched(), dispatched_after_warmup);
  // …but not one new OS thread was created after warm-up.
  EXPECT_EQ(execution->pool().threads_spawned(), spawned_after_warmup);
}

TEST(PoolParity, SharedExecutionContextAcrossTrainers) {
  const auto data = small_data();
  objectives::LogisticLoss loss;
  auto execution = std::make_shared<core::ExecutionContext>(1);
  auto opt = base_options();
  opt.threads = 2;
  const auto t1 = core::TrainerBuilder()
                      .data(data)
                      .objective(loss)
                      .regularization(kReg)
                      .execution(execution)
                      .build();
  (void)t1.train("asgd", opt);
  const auto spawned = execution->pool().threads_spawned();
  const auto t2 = core::TrainerBuilder()
                      .data(data)
                      .objective(loss)
                      .execution(execution)
                      .build();
  (void)t2.train("asgd", opt);
  EXPECT_EQ(execution->pool().threads_spawned(), spawned);
}

}  // namespace
}  // namespace isasgd
