#include <gtest/gtest.h>

#include <cmath>

#include "solvers/options.hpp"
#include "solvers/schedule.hpp"

namespace isasgd::solvers {
namespace {

TEST(Schedule, ConstantIsConstant) {
  SolverOptions opt;
  opt.step_size = 0.5;
  EXPECT_DOUBLE_EQ(epoch_step(opt, 1), 0.5);
  EXPECT_DOUBLE_EQ(epoch_step(opt, 10), 0.5);
  EXPECT_DOUBLE_EQ(epoch_step(opt, 1000), 0.5);
}

TEST(Schedule, EpochDecayMatchesLegacySemantics) {
  // The legacy in-loop `step *= decay` applied after each epoch: epoch 1
  // sees λ0, epoch e sees λ0·decay^(e−1). epoch_step must reproduce that.
  SolverOptions opt;
  opt.step_size = 1.0;
  opt.step_decay = 0.9;
  EXPECT_DOUBLE_EQ(epoch_step(opt, 1), 1.0);
  EXPECT_NEAR(epoch_step(opt, 2), 0.9, 1e-15);
  EXPECT_NEAR(epoch_step(opt, 5), std::pow(0.9, 4), 1e-15);
}

TEST(Schedule, InvEpochDecaysHarmonically) {
  SolverOptions opt;
  opt.step_size = 1.0;
  opt.step_schedule = ScheduleKind::kInvEpoch;
  opt.schedule_offset = 1.0;
  EXPECT_DOUBLE_EQ(epoch_step(opt, 1), 1.0);
  EXPECT_DOUBLE_EQ(epoch_step(opt, 2), 0.5);
  EXPECT_DOUBLE_EQ(epoch_step(opt, 5), 0.2);
}

TEST(Schedule, InvEpochOffsetSlowsDecay) {
  SolverOptions opt;
  opt.step_size = 1.0;
  opt.step_schedule = ScheduleKind::kInvEpoch;
  opt.schedule_offset = 10.0;
  EXPECT_DOUBLE_EQ(epoch_step(opt, 1), 1.0);
  EXPECT_NEAR(epoch_step(opt, 11), 0.5, 1e-15);
}

TEST(Schedule, InvSqrtDecaysAsRoot) {
  SolverOptions opt;
  opt.step_size = 2.0;
  opt.step_schedule = ScheduleKind::kInvSqrtEpoch;
  opt.schedule_offset = 1.0;
  EXPECT_DOUBLE_EQ(epoch_step(opt, 1), 2.0);
  EXPECT_NEAR(epoch_step(opt, 4), 2.0 / std::sqrt(4.0), 1e-15);
  EXPECT_NEAR(epoch_step(opt, 100), 2.0 / std::sqrt(100.0), 1e-15);
}

TEST(Schedule, DecayComposesWithSchedule) {
  SolverOptions opt;
  opt.step_size = 1.0;
  opt.step_schedule = ScheduleKind::kInvEpoch;
  opt.step_decay = 0.5;
  EXPECT_NEAR(epoch_step(opt, 3), (1.0 / 3.0) * 0.25, 1e-15);
}

TEST(Schedule, MonotoneNonIncreasing) {
  for (ScheduleKind kind : {ScheduleKind::kConstant, ScheduleKind::kInvEpoch,
                            ScheduleKind::kInvSqrtEpoch}) {
    SolverOptions opt;
    opt.step_schedule = kind;
    opt.schedule_offset = 3.0;
    double prev = epoch_step(opt, 1);
    for (std::size_t e = 2; e <= 50; ++e) {
      const double cur = epoch_step(opt, e);
      EXPECT_LE(cur, prev + 1e-15) << schedule_name(kind) << " epoch " << e;
      EXPECT_GT(cur, 0.0);
      prev = cur;
    }
  }
}

TEST(Schedule, NamesRoundTrip) {
  for (ScheduleKind kind : {ScheduleKind::kConstant, ScheduleKind::kInvEpoch,
                            ScheduleKind::kInvSqrtEpoch}) {
    EXPECT_EQ(schedule_from_name(schedule_name(kind)), kind);
  }
  EXPECT_THROW((void)schedule_from_name("cosine"), std::invalid_argument);
}

TEST(TheoryStep, MatchesLemma2Formula) {
  // λ = εμ/(2εμ·supL + 2σ²).
  const double eps = 0.01, mu = 2.0, supL = 10.0, sigma2 = 0.5;
  const double expected =
      eps * mu / (2 * eps * mu * supL + 2 * sigma2);
  EXPECT_NEAR(theory_step_size(eps, mu, supL, sigma2), expected, 1e-15);
}

TEST(TheoryStep, ZeroResidualGivesHalfInverseSupL) {
  // σ² = 0 (interpolation regime): λ = 1/(2·supL), independent of ε and μ.
  EXPECT_NEAR(theory_step_size(0.1, 1.0, 4.0, 0.0), 1.0 / 8.0, 1e-15);
  EXPECT_NEAR(theory_step_size(7.0, 0.3, 4.0, 0.0), 1.0 / 8.0, 1e-15);
}

TEST(TheoryStep, TighterTargetShrinksStep) {
  const double a = theory_step_size(0.1, 1.0, 5.0, 1.0);
  const double b = theory_step_size(0.001, 1.0, 5.0, 1.0);
  EXPECT_LT(b, a);
}

TEST(TheoryStep, RejectsInvalidInputs) {
  EXPECT_THROW((void)theory_step_size(0.0, 1.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)theory_step_size(1.0, -1.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)theory_step_size(1.0, 1.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)theory_step_size(1.0, 1.0, 1.0, -0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace isasgd::solvers
