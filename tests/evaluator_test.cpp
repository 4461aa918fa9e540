#include "metrics/evaluator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "util/rng.hpp"

#include "data/packed_source.hpp"
#include "data/synthetic.hpp"
#include "io/shardpack.hpp"
#include "objectives/least_squares.hpp"
#include "objectives/logistic.hpp"
#include "sparse/csr_builder.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::metrics {
namespace {

sparse::CsrMatrix two_row_data() {
  sparse::CsrBuilder b(2);
  b.add_row(std::vector<sparse::index_t>{0}, std::vector<sparse::value_t>{1.0},
            1.0);
  b.add_row(std::vector<sparse::index_t>{1}, std::vector<sparse::value_t>{1.0},
            -1.0);
  return b.build();
}

TEST(Evaluator, ZeroModelScoresLogTwoAndChanceDependsOnSign) {
  const auto data = two_row_data();
  objectives::LogisticLoss loss;
  Evaluator ev(data, loss, objectives::Regularization::none());
  const auto r = ev.evaluate(std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(r.objective, std::log(2.0), 1e-12);
  EXPECT_NEAR(r.rmse, std::sqrt(std::log(2.0)), 1e-12);
  // margin 0 predicts +1: row0 correct, row1 wrong → 50 % error.
  EXPECT_DOUBLE_EQ(r.error_rate, 0.5);
}

TEST(Evaluator, PerfectModelHasZeroError) {
  const auto data = two_row_data();
  objectives::LogisticLoss loss;
  Evaluator ev(data, loss, objectives::Regularization::none());
  const auto r = ev.evaluate(std::vector<double>{10.0, -10.0});
  EXPECT_DOUBLE_EQ(r.error_rate, 0.0);
  EXPECT_LT(r.objective, 1e-4);
}

TEST(Evaluator, RegularizerEntersObjective) {
  const auto data = two_row_data();
  objectives::LogisticLoss loss;
  Evaluator plain(data, loss, objectives::Regularization::none());
  Evaluator l1(data, loss, objectives::Regularization::l1(0.1));
  const std::vector<double> w = {1.0, -1.0};
  EXPECT_NEAR(l1.evaluate(w).objective - plain.evaluate(w).objective,
              0.1 * 2.0, 1e-12);
}

TEST(Evaluator, RegressionErrorRateIsNan) {
  const auto data = two_row_data();
  objectives::LeastSquaresLoss loss;
  Evaluator ev(data, loss, objectives::Regularization::none());
  EXPECT_TRUE(std::isnan(ev.evaluate(std::vector<double>{0, 0}).error_rate));
}

TEST(Evaluator, ParallelMatchesSerial) {
  data::SyntheticSpec spec;
  spec.rows = 5000;
  spec.dim = 400;
  spec.mean_row_nnz = 12;
  const auto data = data::generate(spec);
  objectives::LogisticLoss loss;
  Evaluator serial(data, loss, objectives::Regularization::l1(1e-4), 1);
  Evaluator parallel(data, loss, objectives::Regularization::l1(1e-4), 8);
  std::vector<double> w(data.dim());
  util::Rng rng(5);
  for (auto& v : w) v = util::normal_double(rng) * 0.1;
  const auto a = serial.evaluate(w);
  const auto b = parallel.evaluate(w);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_DOUBLE_EQ(a.error_rate, b.error_rate);
}

TEST(Evaluator, PooledMatchesSerialAndPrivatePool) {
  // The ISSUE-2 parity contract: scoring on a shared ExecutionContext pool,
  // on a lazily-created private pool, and serially must all agree (the
  // chunked reduction is identical for a fixed thread count, so pooled vs
  // per-call-thread results are bit-equal; serial differs only by summation
  // order).
  data::SyntheticSpec spec;
  spec.rows = 3000;
  spec.dim = 300;
  spec.mean_row_nnz = 10;
  const auto data = data::generate(spec);
  objectives::LogisticLoss loss;
  const auto reg = objectives::Regularization::l2(1e-4);
  util::ThreadPool shared_pool;

  Evaluator serial(data, loss, reg, 1);
  Evaluator pooled(data, loss, reg, 4, &shared_pool);
  Evaluator private_pool(data, loss, reg, 4);  // lazily creates its own

  std::vector<double> w(data.dim());
  util::Rng rng(9);
  for (auto& v : w) v = util::normal_double(rng) * 0.1;

  const auto s = serial.evaluate(w);
  const auto a = pooled.evaluate(w);
  const auto b = private_pool.evaluate(w);
  EXPECT_EQ(a.objective, b.objective);  // same chunking → bit-equal
  EXPECT_EQ(a.error_rate, b.error_rate);
  EXPECT_NEAR(s.objective, a.objective, 1e-12);
  EXPECT_DOUBLE_EQ(s.error_rate, a.error_rate);

  // Repeated evaluations reuse the pool workers — no per-call spawning.
  const auto spawned = shared_pool.threads_spawned();
  for (int i = 0; i < 5; ++i) (void)pooled.evaluate(w);
  EXPECT_EQ(shared_pool.threads_spawned(), spawned);
}

void expect_bit_equal(const solvers::EvalResult& a,
                      const solvers::EvalResult& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
            std::bit_cast<std::uint64_t>(b.objective));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rmse),
            std::bit_cast<std::uint64_t>(b.rmse));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.error_rate),
            std::bit_cast<std::uint64_t>(b.error_rate));
}

TEST(Evaluator, MaterializedPackScoresBitEqualToItsShards) {
  // Once a pack has materialized, the Evaluator scores the cached matrix
  // over the shards' row ranges and per-shard thread split, so nothing
  // moves: not against the faulting path, not against chunked memory.
  data::SyntheticSpec spec;
  spec.rows = 1000;
  spec.dim = 200;
  spec.mean_row_nnz = 9;
  const auto data = data::generate(spec);
  constexpr std::size_t kShardRows = 96;  // 11 shards, the last one short
  const std::string path = ::testing::TempDir() + "evaluator_pack.issp";
  io::write_shardpack(path, data, {.shard_rows = kShardRows});
  objectives::LogisticLoss loss;
  const auto reg = objectives::Regularization::l1(1e-4);
  util::ThreadPool pool;
  data::PackedOptions budget;
  budget.memory_budget_bytes = 16 << 10;  // two shards: scoring evicts
  const data::PackedSource packed(path, budget, &pool);
  const data::InMemorySource chunked(data, kShardRows);
  const Evaluator on_pack(packed, loss, reg, 3, &pool);
  const Evaluator on_chunks(chunked, loss, reg, 3, &pool);

  std::vector<double> w(data.dim());
  util::Rng rng(4);
  for (auto& v : w) v = util::normal_double(rng) * 0.2;

  const auto faulted = on_pack.evaluate(w);
  ASSERT_FALSE(packed.resident());
  (void)packed.materialize();
  ASSERT_TRUE(packed.resident());
  const std::uint64_t loads = packed.cache_stats()->loads;
  const auto resident = on_pack.evaluate(w);
  EXPECT_EQ(packed.cache_stats()->loads, loads) << "scoring faulted shards";
  expect_bit_equal(resident, faulted);
  expect_bit_equal(resident, on_chunks.evaluate(w));
  std::remove(path.c_str());
}

TEST(Evaluator, MoreThreadsThanRowsIsSafe) {
  const auto data = two_row_data();
  objectives::LogisticLoss loss;
  Evaluator ev(data, loss, objectives::Regularization::none(), 16);
  const auto r = ev.evaluate(std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(r.objective, std::log(2.0), 1e-12);
}

TEST(Evaluator, AsFnBindsEvaluator) {
  const auto data = two_row_data();
  objectives::LogisticLoss loss;
  Evaluator ev(data, loss, objectives::Regularization::none());
  const solvers::EvalFn fn = ev.as_fn();
  EXPECT_NEAR(fn(std::vector<double>{0.0, 0.0}).objective, std::log(2.0),
              1e-12);
}

}  // namespace
}  // namespace isasgd::metrics
