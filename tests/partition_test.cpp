#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "partition/balancer.hpp"
#include "partition/importance.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace isasgd::partition {
namespace {

// ---------- importance metrics ----------

TEST(ImportanceVariance, MatchesHandComputation) {
  // L = {1,2,3,4}: mean 2.5, variance (2.25+0.25+0.25+2.25)/4 = 1.25.
  EXPECT_DOUBLE_EQ(importance_variance(std::vector<double>{1, 2, 3, 4}), 1.25);
}

TEST(ImportanceVariance, ZeroForConstantVector) {
  EXPECT_DOUBLE_EQ(importance_variance(std::vector<double>{3, 3, 3}), 0.0);
  EXPECT_DOUBLE_EQ(importance_variance(std::vector<double>{}), 0.0);
}

TEST(PartitionImportance, SumsPerPartition) {
  const std::vector<double> lip = {1, 2, 3, 4};
  const std::vector<std::uint32_t> assign = {0, 0, 1, 1};
  const auto phi = partition_importance(lip, assign, 2);
  EXPECT_DOUBLE_EQ(phi[0], 3.0);
  EXPECT_DOUBLE_EQ(phi[1], 7.0);
}

TEST(PartitionImportance, RejectsMismatchedSizes) {
  EXPECT_THROW(partition_importance(std::vector<double>{1.0},
                                    std::vector<std::uint32_t>{0, 1}, 2),
               std::invalid_argument);
}

TEST(PartitionImportance, RejectsOutOfRangeAssignment) {
  EXPECT_THROW(partition_importance(std::vector<double>{1.0},
                                    std::vector<std::uint32_t>{5}, 2),
               std::out_of_range);
}

TEST(ImportanceImbalance, ZeroWhenBalanced) {
  EXPECT_DOUBLE_EQ(importance_imbalance(std::vector<double>{5, 5, 5}), 0.0);
}

TEST(ImportanceImbalance, PositiveWhenUnbalanced) {
  // Φ = {3, 7}: (7−3)/5 = 0.8.
  EXPECT_DOUBLE_EQ(importance_imbalance(std::vector<double>{3, 7}), 0.8);
}

TEST(SamplingDistortion, PaperFigure2Example) {
  // §2.3: D1={L1=1,L2=2} on node 1, D2={L3=3,L4=4} on node 2.
  // Global p4 = 0.4; local contribution of x4 = (4/7)/2 ≈ 0.2857:
  // distortion of x4 = |0.2857−0.4|/0.4 ≈ 0.2857. x1 is worse:
  // local (1/3)/2 = 1/6 vs global 0.1 → 2/3 distortion.
  const std::vector<double> lip = {1, 2, 3, 4};
  const std::vector<std::uint32_t> assign = {0, 0, 1, 1};
  const double worst = sampling_distortion(lip, assign, 2);
  EXPECT_NEAR(worst, 2.0 / 3.0, 1e-9);
}

TEST(SamplingDistortion, ZeroUnderPerfectBalance) {
  // Head-tail pairing of {1,2,3,4} → {1,4} and {2,3}: Φ both 5, and within
  // each shard local/global rates match: e.g. x1: (1/5)/2 = 0.1 = global.
  const std::vector<double> lip = {1, 2, 3, 4};
  const std::vector<std::uint32_t> assign = {0, 1, 1, 0};
  EXPECT_NEAR(sampling_distortion(lip, assign, 2), 0.0, 1e-12);
}

// ---------- balancers ----------

TEST(HeadTailBalance, PaperExampleBalancesPerfectly) {
  // Figure 2's balanced row: {x1,x4 | x3,x2} — head-tail pairing.
  const std::vector<double> lip = {1, 2, 3, 4};
  const auto order = head_tail_balance(lip);
  ASSERT_EQ(order.size(), 4u);
  // First pair must combine smallest with largest.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 2u);
  // Contiguous split into 2 → Φ = {5, 5}.
  const std::vector<std::uint32_t> assign = {0, 0, 1, 1};
  std::vector<double> reordered;
  for (auto i : order) reordered.push_back(lip[i]);
  const auto phi = partition_importance(reordered, assign, 2);
  EXPECT_DOUBLE_EQ(phi[0], phi[1]);
}

TEST(HeadTailBalance, IsAPermutation) {
  util::Rng rng(1);
  std::vector<double> lip(1001);
  for (auto& l : lip) l = util::uniform_double(rng);
  const auto order = head_tail_balance(lip);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), lip.size());
}

TEST(HeadTailBalance, OddCountKeepsMedianLast) {
  const std::vector<double> lip = {5, 1, 3};
  const auto order = head_tail_balance(lip);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 2u);  // the median element (value 3)
}

TEST(HeadTailBalance, EmptyAndSingleton) {
  EXPECT_TRUE(head_tail_balance(std::vector<double>{}).empty());
  const auto one = head_tail_balance(std::vector<double>{2.0});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(RandomShuffle, IsSeededPermutation) {
  const auto a = random_shuffle(500, 42);
  const auto b = random_shuffle(500, 42);
  const auto c = random_shuffle(500, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::set<std::uint32_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 500u);
}

TEST(IdentityOrder, IsIdentity) {
  const auto order = identity_order(5);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(GreedyLpt, BeatsOrMatchesHeadTailOnSkewedData) {
  // Heavy-tailed L: a few huge values among many small ones.
  util::Rng rng(7);
  std::vector<double> lip(1000);
  for (auto& l : lip) {
    const double u = util::uniform_double(rng);
    l = std::pow(u, -0.8);  // Pareto-ish tail
  }
  const std::size_t parts = 8;
  auto imbalance_of = [&](const std::vector<std::uint32_t>& order) {
    std::vector<double> reordered;
    for (auto i : order) reordered.push_back(lip[i]);
    std::vector<std::uint32_t> assign(lip.size());
    for (std::size_t k = 0; k < lip.size(); ++k) {
      assign[k] = static_cast<std::uint32_t>(k * parts / lip.size());
    }
    return importance_imbalance(partition_importance(reordered, assign, parts));
  };
  EXPECT_LE(imbalance_of(greedy_lpt_balance(lip, parts)),
            imbalance_of(head_tail_balance(lip)) + 1e-9);
}

TEST(GreedyLpt, IsAPermutation) {
  std::vector<double> lip = {5, 3, 8, 1, 9, 2, 7};
  const auto order = greedy_lpt_balance(lip, 3);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), lip.size());
}

TEST(GreedyLpt, RejectsZeroPartitions) {
  EXPECT_THROW(greedy_lpt_balance(std::vector<double>{1.0}, 0),
               std::invalid_argument);
}

// ---------- PartitionPlan ----------

TEST(PartitionPlan, ShardsPartitionAllRows) {
  std::vector<double> lip(103);
  util::Rng rng(3);
  for (auto& l : lip) l = 0.1 + util::uniform_double(rng);
  PartitionOptions opt;
  opt.strategy = Strategy::kHeadTail;
  PartitionPlan plan(lip, 4, opt);
  EXPECT_EQ(plan.num_partitions(), 4u);
  EXPECT_EQ(plan.total_rows(), 103u);
  std::set<std::uint32_t> seen;
  std::size_t total = 0;
  for (std::size_t tid = 0; tid < 4; ++tid) {
    const Shard s = plan.shard(tid);
    total += s.rows.size();
    for (auto r : s.rows) seen.insert(r);
    EXPECT_EQ(s.rows.size(), s.lipschitz.size());
    EXPECT_EQ(s.rows.size(), s.probabilities.size());
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(seen.size(), 103u);
}

TEST(PartitionPlan, LocalProbabilitiesSumToOne) {
  std::vector<double> lip(64);
  util::Rng rng(4);
  for (auto& l : lip) l = util::uniform_double(rng) + 0.01;
  PartitionPlan plan(lip, 4, {});
  for (std::size_t tid = 0; tid < 4; ++tid) {
    const Shard s = plan.shard(tid);
    double sum = 0;
    for (double p : s.probabilities) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(PartitionPlan, ShardLipschitzMatchesGlobalRows) {
  std::vector<double> lip = {4, 8, 15, 16, 23, 42};
  PartitionOptions opt;
  opt.strategy = Strategy::kShuffle;
  PartitionPlan plan(lip, 2, opt);
  for (std::size_t tid = 0; tid < 2; ++tid) {
    const Shard s = plan.shard(tid);
    for (std::size_t k = 0; k < s.rows.size(); ++k) {
      EXPECT_DOUBLE_EQ(s.lipschitz[k], lip[s.rows[k]]);
    }
  }
}

TEST(PartitionPlan, PhiMatchesShardSums) {
  std::vector<double> lip = {1, 2, 3, 4, 5, 6};
  PartitionPlan plan(lip, 3, {});
  const auto phis = plan.phis();
  for (std::size_t tid = 0; tid < 3; ++tid) {
    const Shard s = plan.shard(tid);
    double sum = 0;
    for (double l : s.lipschitz) sum += l;
    EXPECT_DOUBLE_EQ(sum, phis[tid]);
    EXPECT_DOUBLE_EQ(s.phi, phis[tid]);
  }
}

TEST(PartitionPlan, HeadTailReducesImbalanceVsIdentity) {
  // Sorted ascending input is the worst case for a contiguous split.
  std::vector<double> lip(1000);
  for (std::size_t i = 0; i < lip.size(); ++i) {
    lip[i] = 0.001 * static_cast<double>(i + 1);
  }
  PartitionOptions none;
  none.strategy = Strategy::kNone;
  PartitionOptions head_tail;
  head_tail.strategy = Strategy::kHeadTail;
  PartitionPlan unbalanced(lip, 8, none);
  PartitionPlan balanced(lip, 8, head_tail);
  EXPECT_LT(balanced.imbalance(), 0.05 * unbalanced.imbalance());
}

TEST(PartitionPlan, AdaptiveBalancesHighRho) {
  // High-spread L (ρ far above ζ) → head-tail under the evaluation-section
  // reading of Algorithm 4.
  std::vector<double> lip = {0.1, 10.0, 0.2, 9.0, 0.1, 12.0};
  PartitionOptions opt;
  opt.strategy = Strategy::kAdaptive;
  opt.zeta = 5e-4;
  PartitionPlan plan(lip, 2, opt);
  EXPECT_EQ(plan.applied_strategy(), Strategy::kHeadTail);
  EXPECT_GT(plan.rho(), opt.zeta);
}

TEST(PartitionPlan, AdaptiveShufflesLowRho) {
  std::vector<double> lip(100, 0.25);  // ρ = 0
  PartitionOptions opt;
  opt.strategy = Strategy::kAdaptive;
  PartitionPlan plan(lip, 2, opt);
  EXPECT_EQ(plan.applied_strategy(), Strategy::kShuffle);
}

TEST(PartitionPlan, LiteralPseudocodeTestFlipsAdaptiveChoice) {
  std::vector<double> lip(100, 0.25);  // ρ = 0 ≤ ζ
  PartitionOptions opt;
  opt.strategy = Strategy::kAdaptive;
  opt.literal_pseudocode_test = true;
  PartitionPlan plan(lip, 2, opt);
  EXPECT_EQ(plan.applied_strategy(), Strategy::kHeadTail);
}

TEST(PartitionPlan, RejectsDegenerateInputs) {
  EXPECT_THROW(PartitionPlan(std::vector<double>{}, 1, {}),
               std::invalid_argument);
  EXPECT_THROW(PartitionPlan(std::vector<double>{1.0}, 0, {}),
               std::invalid_argument);
  EXPECT_THROW(PartitionPlan(std::vector<double>{1.0}, 2, {}),
               std::invalid_argument);
}

TEST(PartitionPlan, ShardOutOfRangeThrows) {
  PartitionPlan plan(std::vector<double>{1.0, 2.0}, 2, {});
  EXPECT_THROW((void)plan.shard(2), std::out_of_range);
}

TEST(PartitionPlan, SinglePartitionRecoversGlobalDistribution) {
  std::vector<double> lip = {1, 2, 3, 4};
  PartitionOptions opt;
  opt.strategy = Strategy::kNone;
  PartitionPlan plan(lip, 1, opt);
  const Shard s = plan.shard(0);
  EXPECT_NEAR(s.probabilities[3], 0.4, 1e-12);  // matches IS-SGD's global P
}

TEST(StrategyNames, RoundTrip) {
  for (Strategy s : {Strategy::kNone, Strategy::kShuffle, Strategy::kHeadTail,
                     Strategy::kGreedyLpt, Strategy::kAdaptive}) {
    EXPECT_EQ(strategy_from_name(strategy_name(s)), s);
  }
  EXPECT_THROW((void)strategy_from_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace isasgd::partition
