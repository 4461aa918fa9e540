// Tests for the extension features beyond the paper's Algorithm 4:
// mini-batch updates and adaptive (Eq. 11) importance re-estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/logistic.hpp"
#include "solvers/asgd.hpp"
#include "solvers/is_asgd.hpp"
#include "solvers/is_sgd.hpp"
#include "solvers/sgd.hpp"
#include "solvers/solver.hpp"

namespace isasgd::solvers {
namespace {

struct Fixture {
  sparse::CsrMatrix data;
  objectives::LogisticLoss loss;
  metrics::Evaluator evaluator;

  Fixture()
      : data([] {
          data::SyntheticSpec spec;
          spec.rows = 1500;
          spec.dim = 250;
          spec.mean_row_nnz = 10;
          spec.target_psi = 0.9;
          return data::generate(spec);
        }()),
        evaluator(data, loss, objectives::Regularization::none(), 4) {}

  SolverOptions options(std::size_t batch) const {
    SolverOptions opt;
    opt.epochs = 6;
    opt.step_size = 0.5;
    opt.threads = 4;
    opt.seed = 13;
    opt.batch_size = batch;
    return opt;
  }
};

double final_rmse(const Trace& t) { return t.points.back().rmse; }
double initial_rmse(const Trace& t) { return t.points.front().rmse; }

/// Mini-batch semantics: the step λ applies to the *averaged* batch
/// gradient, so an epoch contains n/b updates — per-epoch progress shrinks
/// with b at fixed λ (the classic batch-size/step-size trade-off). The
/// convergence expectation therefore loosens as b grows.
double batch_threshold(std::size_t b) {
  if (b <= 1) return 0.75;
  if (b <= 4) return 0.88;
  if (b <= 16) return 0.95;
  return 0.99;
}

class BatchSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSweep, SgdConvergesAtEveryBatchSize) {
  Fixture f;
  const Trace t =
      run_sgd(f.data, f.loss, f.options(GetParam()), f.evaluator.as_fn());
  EXPECT_LT(final_rmse(t), batch_threshold(GetParam()) * initial_rmse(t))
      << "b=" << GetParam();
}

TEST_P(BatchSweep, IsSgdConvergesAtEveryBatchSize) {
  Fixture f;
  const Trace t =
      run_is_sgd(f.data, f.loss, f.options(GetParam()), f.evaluator.as_fn());
  EXPECT_LT(final_rmse(t), batch_threshold(GetParam()) * initial_rmse(t))
      << "b=" << GetParam();
}

TEST_P(BatchSweep, AsgdConvergesAtEveryBatchSize) {
  Fixture f;
  const Trace t =
      run_asgd(f.data, f.loss, f.options(GetParam()), f.evaluator.as_fn());
  EXPECT_LT(final_rmse(t), batch_threshold(GetParam()) * initial_rmse(t))
      << "b=" << GetParam();
}

TEST_P(BatchSweep, IsAsgdConvergesAtEveryBatchSize) {
  Fixture f;
  const Trace t =
      run_is_asgd(f.data, f.loss, f.options(GetParam()), f.evaluator.as_fn());
  EXPECT_LT(final_rmse(t), batch_threshold(GetParam()) * initial_rmse(t))
      << "b=" << GetParam();
}

TEST(MiniBatch, LinearStepScalingRecoversPerEpochProgress) {
  // The classic linear-scaling rule: multiplying λ by b compensates the
  // reduced update count, matching b = 1 progress closely at moderate b.
  Fixture f;
  const Trace base = run_sgd(f.data, f.loss, f.options(1), f.evaluator.as_fn());
  auto opt = f.options(8);
  opt.step_size *= 8;
  const Trace scaled = run_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_NEAR(final_rmse(scaled), final_rmse(base),
              0.15 * final_rmse(base) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweep,
                         ::testing::Values<std::size_t>(1, 4, 16, 64),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

TEST(MiniBatch, BatchOfDatasetSizeStillMakesProgress) {
  // Degenerate full-batch case: one (averaged) update per epoch.
  Fixture f;
  auto opt = f.options(f.data.rows());
  opt.epochs = 12;
  const Trace t = run_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_LT(final_rmse(t), initial_rmse(t));
}

TEST(MiniBatch, ZeroBatchIsTreatedAsOne) {
  Fixture f;
  const Trace t = run_sgd(f.data, f.loss, f.options(0), f.evaluator.as_fn());
  EXPECT_LT(final_rmse(t), 0.75 * initial_rmse(t));
}

TEST(SequenceModes, StratifiedConvergesForBothIsSolvers) {
  Fixture f;
  auto opt = f.options(1);
  opt.sequence_mode = SolverOptions::SequenceMode::kStratified;
  const Trace serial = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_LT(final_rmse(serial), 0.75 * initial_rmse(serial));
  const Trace async = run_is_asgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_LT(final_rmse(async), 0.75 * initial_rmse(async));
}

TEST(SequenceModes, ValidateKeepsTheSequenceMode) {
  const Solver& solver = SolverRegistry::instance().get("IS-SGD");
  SolverOptions untouched;
  untouched.sequence_mode = SolverOptions::SequenceMode::kStratified;
  solver.validate(untouched);
  EXPECT_EQ(untouched.sequence_mode,
            SolverOptions::SequenceMode::kStratified);
}

TEST(SequenceModes, StratifiedBeatsReshuffleOnCoverageBoundData) {
  // On a dataset whose error floor requires visiting every sample (exact
  // duplicates with conflicting labels + memorisable singletons), the
  // reshuffle mode's permanent ~1/e coverage hole must cost accuracy
  // relative to the stratified mode at equal epochs.
  data::SyntheticSpec spec;
  spec.rows = 4000;
  spec.dim = 20000;
  spec.mean_row_nnz = 8;
  spec.target_psi = 0.9;
  spec.duplicate_fraction = 0.2;
  spec.seed = 77;
  const auto data = data::generate(spec);
  objectives::LogisticLoss loss;
  metrics::Evaluator ev(data, loss, objectives::Regularization::none(), 4);
  SolverOptions opt;
  opt.epochs = 12;
  opt.threads = 4;
  opt.step_size = 0.5;
  opt.sequence_mode = SolverOptions::SequenceMode::kReshuffle;
  const Trace reshuffled = run_is_asgd(data, loss, opt, ev.as_fn());
  opt.sequence_mode = SolverOptions::SequenceMode::kStratified;
  const Trace stratified = run_is_asgd(data, loss, opt, ev.as_fn());
  EXPECT_LT(stratified.best_error_rate(), reshuffled.best_error_rate());
}

TEST(AdaptiveImportance, ConvergesAndCostsTrainingTime) {
  Fixture f;
  auto opt = f.options(1);
  opt.adaptive_importance = true;
  const Trace adaptive = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_LT(final_rmse(adaptive), 0.75 * initial_rmse(adaptive));
  // The re-estimation runs inside the timed window; setup only pays the
  // one-off O(nnz) row-norm cache, the same order as the static variant's
  // importance pass (under streamed sequences NO mode pre-generates
  // per-epoch sequences offline, so the two setups are comparable — the
  // old "adaptive setup ≪ static setup" contract is gone by design).
  opt.adaptive_importance = false;
  const Trace fixed = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_GT(adaptive.train_seconds, 0.0);
  EXPECT_LT(adaptive.setup_seconds, 5.0 * fixed.setup_seconds + 1e-2);
}

TEST(AdaptiveImportance, TakesPrecedenceOverShuffledSequenceModes) {
  // adaptive_importance + kReshuffle/kStratified must run the adaptive
  // i.i.d. stream, not throw because the shuffled modes cannot rebuild() —
  // a regression guard for the streamed sequence layer.
  Fixture f;
  for (auto mode : {SolverOptions::SequenceMode::kReshuffle,
                    SolverOptions::SequenceMode::kStratified}) {
    auto opt = f.options(1);
    opt.adaptive_importance = true;
    opt.sequence_mode = mode;
    const Trace serial = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
    EXPECT_LT(final_rmse(serial), initial_rmse(serial));
    const Trace async =
        run_is_asgd(f.data, f.loss, opt, f.evaluator.as_fn());
    EXPECT_LT(final_rmse(async), initial_rmse(async));
  }
}

TEST(AdaptiveImportance, IntervalIsRespected) {
  Fixture f;
  auto opt = f.options(1);
  opt.adaptive_importance = true;
  opt.adaptive_interval = 3;
  const Trace t = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_TRUE(std::isfinite(final_rmse(t)));
  EXPECT_LT(final_rmse(t), initial_rmse(t));
}

TEST(AdaptiveImportance, QualityIsAtLeastComparableToStatic) {
  // Eq. 11 is the variance-optimal distribution; tracking it should not be
  // materially worse than the static Eq. 12 approximation at equal epochs.
  Fixture f;
  auto opt = f.options(1);
  opt.epochs = 8;
  const Trace fixed = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  opt.adaptive_importance = true;
  const Trace adaptive = run_is_sgd(f.data, f.loss, opt, f.evaluator.as_fn());
  EXPECT_LE(final_rmse(adaptive), final_rmse(fixed) * 1.10 + 0.02);
}

}  // namespace
}  // namespace isasgd::solvers
