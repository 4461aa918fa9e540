// Parameterised property sweeps: invariants that must hold across the whole
// configuration grid, not just hand-picked cases.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analysis/bounds.hpp"
#include "data/synthetic.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/objective.hpp"
#include "partition/partition.hpp"
#include "sampling/alias_table.hpp"
#include "solvers/asgd.hpp"
#include "solvers/is_asgd.hpp"
#include "solvers/is_sgd.hpp"
#include "solvers/sgd.hpp"
#include "solvers/solver.hpp"
#include "util/rng.hpp"

namespace isasgd {
namespace {

// ---------- Alias table correctness across weight shapes ----------

struct WeightShape {
  const char* name;
  std::vector<double> (*make)(std::size_t, util::Rng&);
};

std::vector<double> uniform_weights(std::size_t n, util::Rng&) {
  return std::vector<double>(n, 1.0);
}
std::vector<double> linear_weights(std::size_t n, util::Rng&) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<double>(i + 1);
  return w;
}
std::vector<double> random_weights(std::size_t n, util::Rng& rng) {
  std::vector<double> w(n);
  for (auto& v : w) v = util::uniform_double(rng) + 1e-6;
  return w;
}
std::vector<double> pareto_weights(std::size_t n, util::Rng& rng) {
  std::vector<double> w(n);
  for (auto& v : w) v = std::pow(util::uniform_double(rng) + 1e-9, -0.7);
  return w;
}
std::vector<double> sparse_weights(std::size_t n, util::Rng& rng) {
  std::vector<double> w(n, 0.0);
  for (std::size_t i = 0; i < n; i += 3) w[i] = util::uniform_double(rng) + 0.1;
  return w;
}

class AliasDistribution
    : public ::testing::TestWithParam<std::tuple<WeightShape, std::size_t>> {};

TEST_P(AliasDistribution, ProbabilitiesMatchNormalizedWeights) {
  const auto& [shape, n] = GetParam();
  util::Rng rng(n * 7 + 1);
  const auto weights = shape.make(n, rng);
  sampling::AliasTable table(weights);
  double total = 0;
  for (double w : weights) total += w;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(table.probability(i), weights[i] / total, 1e-9);
  }
}

TEST_P(AliasDistribution, EmpiricalFrequenciesWithinTolerance) {
  const auto& [shape, n] = GetParam();
  util::Rng rng(n * 13 + 5);
  const auto weights = shape.make(n, rng);
  sampling::AliasTable table(weights);
  double total = 0;
  for (double w : weights) total += w;
  util::Rng sample_rng(99);
  const int kSamples = 200000;
  std::vector<int> counts(n, 0);
  for (int s = 0; s < kSamples; ++s) ++counts[table.sample(sample_rng)];
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = weights[i] / total;
    const double tolerance =
        5.0 * std::sqrt(std::max(expected, 1e-12) / kSamples) + 1e-4;
    EXPECT_NEAR(counts[i] / double(kSamples), expected, tolerance)
        << shape.name << " n=" << n << " outcome " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AliasDistribution,
    ::testing::Combine(
        ::testing::Values(WeightShape{"uniform", uniform_weights},
                          WeightShape{"linear", linear_weights},
                          WeightShape{"random", random_weights},
                          WeightShape{"pareto", pareto_weights},
                          WeightShape{"sparse", sparse_weights}),
        ::testing::Values<std::size_t>(2, 7, 64, 501)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- Partition balancing across strategies and widths ----------

class BalancingSweep
    : public ::testing::TestWithParam<std::tuple<partition::Strategy, std::size_t>> {};

TEST_P(BalancingSweep, PlanInvariantsHold) {
  const auto& [strategy, parts] = GetParam();
  util::Rng rng(31);
  std::vector<double> lip(997);
  for (auto& l : lip) l = std::pow(util::uniform_double(rng) + 1e-9, -0.5);
  partition::PartitionOptions opt;
  opt.strategy = strategy;
  partition::PartitionPlan plan(lip, parts, opt);
  // 1. Shards tile the row set.
  std::size_t total = 0;
  double phi_total = 0;
  for (std::size_t tid = 0; tid < parts; ++tid) {
    const auto shard = plan.shard(tid);
    total += shard.rows.size();
    phi_total += shard.phi;
    double psum = 0;
    for (double p : shard.probabilities) {
      EXPECT_GE(p, 0.0);
      psum += p;
    }
    EXPECT_NEAR(psum, 1.0, 1e-9);
  }
  EXPECT_EQ(total, lip.size());
  // 2. Φ mass is conserved.
  double lip_total = 0;
  for (double l : lip) lip_total += l;
  EXPECT_NEAR(phi_total, lip_total, 1e-6 * lip_total);
}

TEST_P(BalancingSweep, BalancersNeverWorseThanIdentityOnSortedData) {
  const auto& [strategy, parts] = GetParam();
  if (strategy == partition::Strategy::kNone) GTEST_SKIP();
  // Ascending L is adversarial for contiguous splits.
  std::vector<double> lip(600);
  for (std::size_t i = 0; i < lip.size(); ++i) {
    lip[i] = 1e-3 * static_cast<double>(i * i + 1);
  }
  partition::PartitionOptions ident;
  ident.strategy = partition::Strategy::kNone;
  partition::PartitionOptions opt;
  opt.strategy = strategy;
  partition::PartitionPlan base(lip, parts, ident);
  partition::PartitionPlan plan(lip, parts, opt);
  EXPECT_LE(plan.imbalance(), base.imbalance() + 1e-9)
      << partition::strategy_name(strategy) << " parts=" << parts;
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesWidths, BalancingSweep,
    ::testing::Combine(::testing::Values(partition::Strategy::kNone,
                                         partition::Strategy::kShuffle,
                                         partition::Strategy::kHeadTail,
                                         partition::Strategy::kGreedyLpt),
                       ::testing::Values<std::size_t>(2, 4, 8, 16)),
    [](const auto& info) {
      return partition::strategy_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- Solver convergence across the configuration grid ----------

struct SolverCase {
  const char* name;  // registry name
};

class SolverGrid
    : public ::testing::TestWithParam<
          std::tuple<SolverCase, const char*, std::size_t>> {};

TEST_P(SolverGrid, ObjectiveDecreasesAcrossGrid) {
  const auto& [solver, objective_name, threads] = GetParam();
  data::SyntheticSpec spec;
  spec.rows = 1200;
  spec.dim = 250;
  spec.mean_row_nnz = 8;
  spec.target_psi = 0.9;
  spec.smoothness_beta =
      objectives::make_objective(objective_name)->smoothness();
  spec.mean_lipschitz = 0.3;
  spec.seed = threads * 17 + 3;
  const auto data = data::generate(spec);
  const auto objective = objectives::make_objective(objective_name);
  metrics::Evaluator ev(data, *objective, objectives::Regularization::none(),
                        2);
  solvers::SolverOptions opt;
  opt.epochs = 5;
  opt.step_size = objective->name() == "logistic" ? 0.5 : 0.1;
  opt.threads = threads;
  opt.seed = 5;
  const data::InMemorySource source(data);
  const auto trace = solvers::SolverRegistry::instance().get(solver.name).train(
      solvers::SolverContext{.source = source,
                             .objective = *objective,
                             .options = opt,
                             .eval = ev.as_fn(),
                             .observer = nullptr,
                             .snapshot = {}});
  EXPECT_LT(trace.points.back().objective, trace.points.front().objective)
      << solver.name << "/" << objective_name << "/t" << threads;
  EXPECT_TRUE(std::isfinite(trace.points.back().objective));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverGrid,
    ::testing::Combine(
        ::testing::Values(SolverCase{"sgd"}, SolverCase{"is_sgd"},
                          SolverCase{"asgd"}, SolverCase{"is_asgd"}),
        ::testing::Values("logistic", "squared_hinge"),
        ::testing::Values<std::size_t>(1, 2, 8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::get<1>(info.param) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

// ---------- IS weight unbiasedness ----------

class IsWeighting : public ::testing::TestWithParam<double> {};

TEST_P(IsWeighting, WeightedSamplingIsUnbiasedInExpectation) {
  // E[(n·p_i)^{-1}·g_i] under P must equal (1/n)·Σ g_i for any per-sample
  // quantity g. Check with g = L (importance itself) across ψ targets.
  const double psi_target = GetParam();
  data::SyntheticSpec spec;
  spec.rows = 4000;
  spec.dim = 200;
  spec.target_psi = psi_target;
  const auto data = data::generate(spec);
  const auto objective = objectives::make_objective("logistic");
  const auto lip = objectives::per_sample_lipschitz(
      data, *objective, objectives::Regularization::none());
  double total = 0;
  for (double l : lip) total += l;
  const double true_mean = total / static_cast<double>(lip.size());

  sampling::AliasTable table(lip);
  util::Rng rng(11);
  double acc = 0;
  constexpr int kSamples = 300000;
  for (int s = 0; s < kSamples; ++s) {
    const std::size_t i = table.sample(rng);
    const double p = lip[i] / total;
    acc += lip[i] / (static_cast<double>(lip.size()) * p);
  }
  EXPECT_NEAR(acc / kSamples, true_mean, 0.02 * true_mean);
}

INSTANTIATE_TEST_SUITE_P(PsiSweep, IsWeighting,
                         ::testing::Values(0.999, 0.95, 0.9, 0.85),
                         [](const auto& info) {
                           return "psi" + std::to_string(static_cast<int>(
                                              info.param * 1000));
                         });

// ---------- ψ calibration property across the generator grid ----------

class PsiCalibration : public ::testing::TestWithParam<double> {};

TEST_P(PsiCalibration, GeneratedPsiTracksTarget) {
  const double target = GetParam();
  data::SyntheticSpec spec;
  spec.rows = 30000;
  spec.dim = 2000;
  spec.mean_row_nnz = 6;
  spec.target_psi = target;
  spec.seed = static_cast<std::uint64_t>(target * 1e6);
  const auto data = data::generate(spec);
  const auto objective = objectives::make_objective("logistic");
  const auto lip = objectives::per_sample_lipschitz(
      data, *objective, objectives::Regularization::none());
  EXPECT_NEAR(analysis::psi(lip), target, 0.025);
}

INSTANTIATE_TEST_SUITE_P(Targets, PsiCalibration,
                         ::testing::Values(0.877, 0.892, 0.93, 0.964, 0.972),
                         [](const auto& info) {
                           return "target" + std::to_string(static_cast<int>(
                                                 info.param * 1000));
                         });

}  // namespace
}  // namespace isasgd
