// Parameterised property sweeps over the extension modules: sampler
// agreement, delay-law moments, partition-strategy invariants, prox maps.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "objectives/prox.hpp"
#include "partition/partition.hpp"
#include "sampling/alias_table.hpp"
#include "sampling/cdf_sampler.hpp"
#include "simulate/delay_model.hpp"
#include "util/rng.hpp"

namespace isasgd {
namespace {

// ---------- sampler agreement across weight shapes ----------

enum class WeightShape { kUniform, kLinear, kLognormal, kOneHeavy, kManyZeros };

std::string shape_name(WeightShape s) {
  switch (s) {
    case WeightShape::kUniform: return "uniform";
    case WeightShape::kLinear: return "linear";
    case WeightShape::kLognormal: return "lognormal";
    case WeightShape::kOneHeavy: return "one_heavy";
    case WeightShape::kManyZeros: return "many_zeros";
  }
  return "?";
}

std::vector<double> make_weights(WeightShape shape, std::size_t n,
                                 std::uint64_t seed) {
  std::vector<double> w(n, 1.0);
  util::Rng rng(seed);
  switch (shape) {
    case WeightShape::kUniform:
      break;
    case WeightShape::kLinear:
      for (std::size_t i = 0; i < n; ++i) w[i] = double(i + 1);
      break;
    case WeightShape::kLognormal:
      for (auto& v : w) v = std::exp(2.0 * util::normal_double(rng));
      break;
    case WeightShape::kOneHeavy:
      for (auto& v : w) v = 1e-6;
      w[n / 2] = 1.0;
      break;
    case WeightShape::kManyZeros:
      for (std::size_t i = 0; i < n; ++i) w[i] = (i % 3 == 0) ? 1.0 : 0.0;
      break;
  }
  return w;
}

class SamplerAgreement
    : public ::testing::TestWithParam<std::tuple<WeightShape, std::size_t>> {};

TEST_P(SamplerAgreement, AliasAndCdfSamplersMatchTheTrueDistribution) {
  const auto [shape, n] = GetParam();
  const auto weights = make_weights(shape, n, 17);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  sampling::AliasTable alias(weights);
  sampling::CdfSampler cdf(weights);
  util::Rng r1(5), r2(5);
  constexpr int kDraws = 120000;
  std::vector<int> c1(n), c2(n);
  for (int i = 0; i < kDraws; ++i) {
    ++c1[alias.sample(r1)];
    ++c2[cdf.sample(r2)];
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double p = weights[k] / total;
    // 5σ binomial band plus a discreteness floor (a single stray draw of a
    // near-zero-probability outcome is 1/kDraws, far above its σ band).
    const double tol = 5 * std::sqrt((p + 1e-9) / kDraws) + 3.0 / kDraws;
    EXPECT_NEAR(c1[k] / double(kDraws), p, tol) << "alias outcome " << k;
    EXPECT_NEAR(c2[k] / double(kDraws), p, tol) << "cdf outcome " << k;
    if (p == 0.0) {
      EXPECT_EQ(c1[k], 0);
      EXPECT_EQ(c2[k], 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesTimesSizes, SamplerAgreement,
    ::testing::Combine(::testing::Values(WeightShape::kUniform,
                                         WeightShape::kLinear,
                                         WeightShape::kLognormal,
                                         WeightShape::kOneHeavy,
                                         WeightShape::kManyZeros),
                       ::testing::Values(std::size_t{16}, std::size_t{257})),
    [](const auto& info) {
      return shape_name(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- delay-law moments ----------

class DelayMoments
    : public ::testing::TestWithParam<
          std::tuple<simulate::DelayKind, std::size_t>> {};

TEST_P(DelayMoments, EmpiricalMeanMatchesDeclaredMean) {
  const auto [kind, tau] = GetParam();
  const simulate::DelayModel model{kind, tau};
  util::Rng rng(23);
  constexpr int kDraws = 150000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(model.draw(rng));
  }
  const double mean = sum / kDraws;
  const double declared = model.mean();
  // Geometric has std ≈ mean; uniform std ≈ tau/√12 — 5σ/√N bands.
  const double spread =
      kind == simulate::DelayKind::kGeometric
          ? declared + 1.0
          : static_cast<double>(tau) / std::sqrt(12.0) + 1.0;
  EXPECT_NEAR(mean, declared, 5 * spread / std::sqrt(double(kDraws)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    KindsTimesTaus, DelayMoments,
    ::testing::Combine(::testing::Values(simulate::DelayKind::kNone,
                                         simulate::DelayKind::kFixed,
                                         simulate::DelayKind::kUniform,
                                         simulate::DelayKind::kGeometric),
                       ::testing::Values(std::size_t{0}, std::size_t{7},
                                         std::size_t{64})),
    [](const auto& info) {
      return simulate::delay_kind_name(std::get<0>(info.param)) + "_tau" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- partition-strategy invariants ----------

class StrategyInvariants
    : public ::testing::TestWithParam<
          std::tuple<partition::Strategy, std::size_t>> {};

TEST_P(StrategyInvariants, PlansConserveMassAndCoverEveryRow) {
  const auto [strategy, parts] = GetParam();
  std::vector<double> lipschitz(101);
  util::Rng rng(31);
  for (auto& v : lipschitz) v = std::exp(1.5 * util::normal_double(rng));
  const double total = std::accumulate(lipschitz.begin(), lipschitz.end(), 0.0);

  partition::PartitionOptions opt;
  opt.strategy = strategy;
  const partition::PartitionPlan plan(lipschitz, parts, opt);

  // Every row appears exactly once across the shards.
  std::vector<int> seen(lipschitz.size(), 0);
  double phi_total = 0;
  for (std::size_t a = 0; a < parts; ++a) {
    const auto shard = plan.shard(a);
    phi_total += shard.phi;
    double local_p = 0;
    for (std::size_t k = 0; k < shard.rows.size(); ++k) {
      ++seen[shard.rows[k]];
      EXPECT_DOUBLE_EQ(shard.lipschitz[k], lipschitz[shard.rows[k]]);
      local_p += shard.probabilities[k];
    }
    if (!shard.rows.empty()) {
      EXPECT_NEAR(local_p, 1.0, 1e-9) << "shard " << a;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "row " << i;
  }
  // Σ Φ_a equals the total importance mass.
  EXPECT_NEAR(phi_total, total, 1e-9 * total);
  EXPECT_GE(plan.imbalance(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesParts, StrategyInvariants,
    ::testing::Combine(::testing::Values(partition::Strategy::kNone,
                                         partition::Strategy::kShuffle,
                                         partition::Strategy::kHeadTail,
                                         partition::Strategy::kGreedyLpt,
                                         partition::Strategy::kKarmarkarKarp,
                                         partition::Strategy::kAdaptive),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{8})),
    [](const auto& info) {
      return partition::strategy_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- prox maps ----------

class ProxProperties
    : public ::testing::TestWithParam<objectives::Regularization::Kind> {
 protected:
  objectives::Regularization reg() const {
    using K = objectives::Regularization::Kind;
    switch (GetParam()) {
      case K::kNone: return objectives::Regularization::none();
      case K::kL1: return objectives::Regularization::l1(0.7);
      case K::kL2: return objectives::Regularization::l2(0.7);
    }
    return objectives::Regularization::none();
  }
};

TEST_P(ProxProperties, NonExpansive) {
  // prox of a convex regularizer is 1-Lipschitz (firmly non-expansive).
  const auto r = reg();
  for (double step : {0.01, 0.5, 2.0}) {
    for (double a = -3.0; a <= 3.0; a += 0.37) {
      for (double b = -3.0; b <= 3.0; b += 0.41) {
        const double pa = objectives::prox(r, a, step);
        const double pb = objectives::prox(r, b, step);
        EXPECT_LE(std::abs(pa - pb), std::abs(a - b) + 1e-12)
            << "step=" << step << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST_P(ProxProperties, ShrinksTowardZeroAndFixesZero) {
  const auto r = reg();
  EXPECT_DOUBLE_EQ(objectives::prox(r, 0.0, 0.5), 0.0);
  for (double v : {-2.0, -0.1, 0.3, 4.0}) {
    const double p = objectives::prox(r, v, 0.5);
    EXPECT_LE(std::abs(p), std::abs(v) + 1e-15);
    EXPECT_GE(p * v, 0.0);  // never crosses zero
  }
}

TEST_P(ProxProperties, ZeroStepIsIdentity) {
  const auto r = reg();
  for (double v : {-1.5, 0.0, 2.25}) {
    EXPECT_DOUBLE_EQ(objectives::prox(r, v, 0.0), v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ProxProperties,
    ::testing::Values(objectives::Regularization::Kind::kNone,
                      objectives::Regularization::Kind::kL1,
                      objectives::Regularization::Kind::kL2),
    [](const auto& info) {
      using K = objectives::Regularization::Kind;
      switch (info.param) {
        case K::kNone: return std::string("none");
        case K::kL1: return std::string("l1");
        case K::kL2: return std::string("l2");
      }
      return std::string("?");
    });

}  // namespace
}  // namespace isasgd
