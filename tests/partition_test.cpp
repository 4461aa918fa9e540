#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "data/synthetic.hpp"
#include "objectives/logistic.hpp"
#include "partition/balancer.hpp"
#include "partition/importance.hpp"
#include "partition/partition.hpp"
#include "solvers/importance_weights.hpp"
#include "solvers/is_asgd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

// ---------- the radix value order against the sort it replaced ----------

/// iota + std::stable_sort: the balancers' row order before the radix
/// order, kept as the reference it must equal.
std::vector<std::uint32_t> reference_order(std::span<const double> values,
                                           bool descending) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return descending ? values[a] > values[b]
                                       : values[a] < values[b];
                   });
  return order;
}

void expect_reference_order(const std::vector<double>& values) {
  for (const bool descending : {false, true}) {
    EXPECT_EQ(detail::value_order(values, descending),
              reference_order(values, descending))
        << (descending ? "descending" : "ascending") << " over "
        << values.size() << " values";
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
constexpr double kTiny = std::numeric_limits<double>::min();

TEST(ValueOrder, EmptyAndSingleton) {
  expect_reference_order({});
  expect_reference_order({2.5});
  expect_reference_order({-0.0});
}

TEST(ValueOrder, AllEqualKeepsRowOrder) {
  expect_reference_order(std::vector<double>(37, 1.25));
  expect_reference_order(std::vector<double>(5, 0.0));
}

TEST(ValueOrder, HeavyTies) {
  expect_reference_order({3, 1, 3, 2, 1, 3, 2, 2, 1, 3, 0.5, 2, 1, 0.5, 3});
}

TEST(ValueOrder, MixedSignedZerosTie) {
  // `<` holds −0.0 and +0.0 equal, so they keep row order among themselves.
  expect_reference_order({0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0, 0.0});
}

TEST(ValueOrder, Denormals) {
  expect_reference_order({kDenorm, 0.0, 2 * kDenorm, kTiny, -kDenorm, kDenorm,
                          -0.0, kTiny / 2, -kTiny, 3 * kDenorm});
}

TEST(ValueOrder, Infinities) {
  expect_reference_order({kInf, 1.0, -kInf, kInf, 0.0, -kInf,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(), -0.0});
}

TEST(ValueOrder, Negatives) {
  expect_reference_order(
      {-3.5, 2.0, -1e300, -3.5, 4.0, -0.5, 1e-300, -1e-300, -0.5, 2.0});
}

/// Tie-heavy importances: a few dozen distinct values, as rows with few
/// distinct norms give, plus zeros and a sprinkling of continuous values.
std::vector<double> tie_heavy(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    const std::size_t kind = util::uniform_index(rng, 16);
    x = kind == 0   ? 0.0
        : kind == 1 ? util::uniform_double(rng) * 40
                    : 0.25 * static_cast<double>(1 + util::uniform_index(rng, 48));
  }
  return v;
}

TEST(ValueOrder, HundredThousandTieHeavyValues) {
  expect_reference_order(tie_heavy(100000, 17));
  // And values spread over two thousand binary exponents, of both signs.
  util::Rng rng(18);
  std::vector<double> wide(100000);
  for (auto& x : wide) {
    x = std::ldexp(util::uniform_double(rng),
                   static_cast<int>(util::uniform_index(rng, 2000)) - 1000);
    if (util::uniform_index(rng, 4) == 0) x = -x;
  }
  expect_reference_order(wide);
}

// ---------- every Strategy's plan against the reference order ----------

constexpr Strategy kAllStrategies[] = {
    Strategy::kNone,      Strategy::kShuffle,       Strategy::kHeadTail,
    Strategy::kGreedyLpt, Strategy::kKarmarkarKarp, Strategy::kAdaptive};

/// The row order `applied` yields when its sort is the reference one.
std::vector<std::uint32_t> reference_strategy_order(
    std::span<const double> lip, std::size_t k, const PartitionOptions& opt,
    Strategy applied) {
  switch (applied) {
    case Strategy::kNone:
      return identity_order(lip.size());
    case Strategy::kShuffle:
      return random_shuffle(lip.size(), opt.shuffle_seed);
    case Strategy::kHeadTail:
      return detail::head_tail_deal(reference_order(lip, false));
    case Strategy::kGreedyLpt:
      return detail::greedy_lpt_deal(lip, reference_order(lip, true), k);
    case Strategy::kKarmarkarKarp:
      return k == 1 ? identity_order(lip.size())
                    : detail::karmarkar_karp_deal(
                          lip, reference_order(lip, true), k);
    case Strategy::kAdaptive:
      break;
  }
  ADD_FAILURE() << "adaptive is resolved before ordering";
  return {};
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Builds the plan for every strategy and k ∈ {1, 2, 3, 8} and requires it
/// to equal the plan of the reference order — order, per-slot L and P, and
/// Φ, bit for bit, with the plan's own arithmetic redone over that order.
void expect_reference_plans(const std::vector<double>& lip) {
  const std::size_t n = lip.size();
  for (const Strategy strategy : kAllStrategies) {
    for (const std::size_t k : {1, 2, 3, 8}) {
      SCOPED_TRACE(strategy_name(strategy) + " k=" + std::to_string(k));
      PartitionOptions opt;
      opt.strategy = strategy;
      const PartitionPlan plan(lip, k, opt);
      const std::vector<std::uint32_t> order =
          reference_strategy_order(lip, k, opt, plan.applied_strategy());
      ASSERT_EQ(std::vector<std::uint32_t>(plan.order().begin(),
                                           plan.order().end()),
                order);
      for (std::size_t t = 0; t < k; ++t) {
        const Shard shard = plan.shard(t);
        const std::size_t begin = n * t / k, size = n * (t + 1) / k - begin;
        ASSERT_EQ(shard.rows.size(), size);
        double phi = 0;
        for (std::size_t j = 0; j < size; ++j) {
          ASSERT_EQ(bits(shard.lipschitz[j]), bits(lip[order[begin + j]]));
          phi += lip[order[begin + j]];
        }
        EXPECT_EQ(bits(shard.phi), bits(phi));
        EXPECT_EQ(bits(plan.phis()[t]), bits(phi));
        for (std::size_t j = 0; j < size; ++j) {
          const double p = phi > 0 ? lip[order[begin + j]] / phi
                                   : 1.0 / static_cast<double>(size);
          ASSERT_EQ(bits(shard.probabilities[j]), bits(p));
        }
      }
    }
  }
}

TEST(PartitionPlan, EveryStrategyEqualsThePlanOfTheReferenceOrder) {
  expect_reference_plans(tie_heavy(5003, 29));
  // Zeros of both signs, denormals, infinities and negatives keep their
  // order too (Φ and P may be non-finite there; the bits must still match).
  expect_reference_plans({3.0, -0.0, kDenorm, 0.0, kInf, -2.0, 1.0, kTiny,
                          -0.0, 3.0, 2 * kDenorm, 1.0, -kInf, 0.5, 3.0});
}

// ---------- NaN importance is a typed error naming its row ----------

/// Runs `fn` and requires std::invalid_argument ending "row <row>".
template <class Fn>
void expect_nan_rejected(Fn&& fn, std::size_t row) {
  const std::string suffix = "NaN importance at row " + std::to_string(row);
  try {
    fn();
    ADD_FAILURE() << "no exception for a NaN at row " << row;
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(std::string(e.what()).ends_with(suffix)) << e.what();
  }
}

TEST(PartitionPlan, RejectsNaNImportanceForEveryStrategy) {
  std::vector<double> lip = tie_heavy(257, 31);
  for (const std::size_t row : {std::size_t{0}, lip.size() / 2,
                                lip.size() - 1}) {
    std::vector<double> poisoned = lip;
    poisoned[row] = std::numeric_limits<double>::quiet_NaN();
    for (const Strategy strategy : kAllStrategies) {
      SCOPED_TRACE(strategy_name(strategy));
      PartitionOptions opt;
      opt.strategy = strategy;
      expect_nan_rejected([&] { (void)PartitionPlan(poisoned, 3, opt); }, row);
    }
  }
}

TEST(Balancers, RejectNaNImportanceBeforeOrdering) {
  std::vector<double> lip = tie_heavy(101, 37);
  for (const std::size_t row : {std::size_t{0}, lip.size() / 2,
                                lip.size() - 1}) {
    std::vector<double> poisoned = lip;
    poisoned[row] = -std::numeric_limits<double>::quiet_NaN();
    expect_nan_rejected([&] { head_tail_balance(poisoned); }, row);
    for (const std::size_t k : {1, 3}) {
      expect_nan_rejected([&] { greedy_lpt_balance(poisoned, k); }, row);
      expect_nan_rejected([&] { karmarkar_karp_balance(poisoned, k); }, row);
    }
  }
}

// ---------- the pooled offline phase ----------
// These two run under ThreadSanitizer in CI: no Hogwild step runs in this
// binary, so any report is a real race.

sparse::CsrMatrix setup_data() {
  data::SyntheticSpec spec;
  spec.rows = 3001;
  spec.dim = 700;
  spec.mean_row_nnz = 9;
  spec.target_psi = 0.7;
  return data::generate(spec);
}

/// Exact squared row norms, as a pack's sidecar carries them.
class MatrixRowStats final : public data::RowStats {
 public:
  explicit MatrixRowStats(const sparse::CsrMatrix& m) : m_(m) {}
  double row_squared_norm(std::size_t row) const override {
    return m_.row(row).squared_norm();
  }

 private:
  const sparse::CsrMatrix& m_;
};

TEST(PooledImportance, EqualsTheSerialVectorForEveryTeam) {
  const sparse::CsrMatrix x = setup_data();
  const objectives::LogisticLoss loss;
  const MatrixRowStats stats(x);
  util::ThreadPool pool(4, {.max_workers = 4});
  for (const auto kind : {solvers::ImportanceKind::kLipschitz,
                          solvers::ImportanceKind::kGradientBound}) {
    solvers::SolverOptions opt;
    opt.importance = kind;
    opt.reg = objectives::Regularization::l2(1e-3);
    const std::vector<double> serial =
        solvers::detail::importance_weights(x, loss, opt);
    if (kind == solvers::ImportanceKind::kLipschitz) {
      EXPECT_EQ(serial, objectives::per_sample_lipschitz(x, loss, opt.reg));
    }
    for (const std::size_t team : {1, 2, 3, 8}) {
      SCOPED_TRACE("team " + std::to_string(team));
      const std::vector<double> pooled = solvers::detail::importance_weights(
          x, loss, opt, nullptr, pool, team);
      ASSERT_EQ(pooled.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(bits(pooled[i]), bits(serial[i])) << "row " << i;
      }
      if (solvers::detail::stats_feed_importance(opt)) {
        EXPECT_EQ(solvers::detail::importance_weights(x, loss, opt, &stats,
                                                      pool, team),
                  solvers::detail::importance_weights_from_stats(
                      stats, 0, x.rows(), loss, opt));
      }
    }
  }
  EXPECT_EQ(pool.threads_spawned(), 4u);
}

TEST(IsAsgdSetup, PooledSetupAtFourThreadsMatchesTheSerialPlan) {
  const sparse::CsrMatrix x = setup_data();
  const objectives::LogisticLoss loss;
  const MatrixRowStats stats(x);
  const solvers::EvalFn eval = [](std::span<const double>) {
    return solvers::EvalResult{};
  };
  util::ThreadPool pool(4);
  solvers::SolverOptions opt;
  opt.threads = 4;
  opt.epochs = 0;
  opt.keep_final_model = true;
  opt.partition.strategy = Strategy::kHeadTail;
  PartitionOptions popt = opt.partition;
  popt.shuffle_seed = opt.seed ^ 0x1517;
  const PartitionPlan serial(solvers::detail::importance_weights(x, loss, opt),
                             4, popt);
  for (const bool adaptive : {false, true}) {
    for (const data::RowStats* feed : {static_cast<const data::RowStats*>(nullptr),
                                       static_cast<const data::RowStats*>(&stats)}) {
      opt.adaptive_importance = adaptive;
      solvers::IsAsgdReport report;
      const solvers::Trace trace = solvers::run_is_asgd(
          x, loss, opt, eval, &report, nullptr, &pool, nullptr, feed);
      EXPECT_EQ(trace.points.size(), 1u);
      EXPECT_EQ(bits(report.rho), bits(serial.rho()));
      EXPECT_EQ(bits(report.phi_imbalance), bits(serial.imbalance()));
      EXPECT_EQ(trace.final_model, std::vector<double>(x.dim(), 0.0));
    }
  }
  EXPECT_EQ(pool.threads_spawned(), 4u);
}

}  // namespace
}  // namespace isasgd::partition
