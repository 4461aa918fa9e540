#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "sampling/alias_table.hpp"
#include "sampling/cdf_sampler.hpp"
#include "sampling/sequence.hpp"
#include "util/rng.hpp"

namespace isasgd::sampling {
namespace {

// ---------- AliasTable ----------

TEST(AliasTable, NormalizesProbabilities) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_NEAR(table.probability(0), 0.1, 1e-12);
  EXPECT_NEAR(table.probability(3), 0.4, 1e-12);
  double sum = 0;
  for (double p : table.probabilities()) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}),
               std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(
      AliasTable(std::vector<double>{std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  EXPECT_THROW(
      AliasTable(std::vector<double>{std::nan("")}),
      std::invalid_argument);
}

TEST(AliasTable, SingleOutcomeAlwaysSampled) {
  AliasTable table(std::vector<double>{3.0});
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightOutcomeNeverSampled) {
  AliasTable table(std::vector<double>{1.0, 0.0, 1.0});
  util::Rng rng(2);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(table.sample(rng), 1u);
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  util::Rng rng(3);
  constexpr int kSamples = 400000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < kSamples; ++i) ++counts[table.sample(rng)];
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const double expected = weights[k] / 10.0;
    const double got = counts[k] / double(kSamples);
    EXPECT_NEAR(got, expected, 4 * std::sqrt(expected / kSamples))
        << "outcome " << k;
  }
}

TEST(AliasTable, HandlesExtremeSkew) {
  std::vector<double> weights(100, 1e-9);
  weights[42] = 1.0;
  AliasTable table(weights);
  util::Rng rng(4);
  int hits = 0;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    if (table.sample(rng) == 42u) ++hits;
  }
  EXPECT_GT(hits, kSamples * 99 / 100);
}

TEST(AliasTable, UniformWeightsSampleUniformly) {
  std::vector<double> weights(8, 5.0);
  AliasTable table(weights);
  util::Rng rng(5);
  std::vector<int> counts(8, 0);
  constexpr int kSamples = 160000;
  for (int i = 0; i < kSamples; ++i) ++counts[table.sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 8.0, 5 * std::sqrt(kSamples / 8.0));
  }
}

// ---------- CdfSampler ----------

/// The alias construction before its scratch shrank (a scaled-mass vector
/// and two work stacks), frozen as the reference the table must equal.
struct FrozenAliasTable {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;

  explicit FrozenAliasTable(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    double total = 0;
    for (double w : weights) total += w;
    std::vector<double> normalized(n);
    for (std::size_t i = 0; i < n; ++i) normalized[i] = weights[i] / total;
    prob.assign(n, 1.0);
    alias.resize(n);
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = normalized[i] * static_cast<double>(n);
      alias[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob[s] = scaled[s];
      alias[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t s : small) prob[s] = 1.0;
    for (std::uint32_t l : large) prob[l] = 1.0;
  }

  template <class Gen>
  std::size_t sample(Gen& gen) const {
    const std::size_t k =
        static_cast<std::size_t>(util::uniform_index(gen, prob.size()));
    return util::uniform_double(gen) < prob[k] ? k : alias[k];
  }
};

TEST(AliasTable, EqualsTheFrozenConstructorBitForBit) {
  util::Rng rng(77);
  std::vector<double> skewed(4000);
  for (auto& w : skewed) w = std::pow(util::uniform_double(rng) + 1e-9, -1.5);
  std::vector<double> tied(999);
  for (std::size_t i = 0; i < tied.size(); ++i) tied[i] = 1.0 + (i % 3 == 0);
  std::vector<double> zeros(513, 0.0);
  for (std::size_t i = 0; i < zeros.size(); i += 4) {
    zeros[i] = util::uniform_double(rng);
  }
  for (const auto& weights : {skewed, tied, zeros, std::vector<double>{2.5}}) {
    SCOPED_TRACE("n = " + std::to_string(weights.size()));
    const AliasTable table(weights);
    const FrozenAliasTable frozen(weights);
    ASSERT_EQ(table.thresholds().size(), frozen.prob.size());
    for (std::size_t i = 0; i < frozen.prob.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(table.thresholds()[i]),
                std::bit_cast<std::uint64_t>(frozen.prob[i]))
          << "bucket " << i;
      ASSERT_EQ(table.aliases()[i], frozen.alias[i]) << "bucket " << i;
    }
    util::Rng a(5), b(5);
    for (int draw = 0; draw < 10000; ++draw) {
      ASSERT_EQ(table.sample(a), frozen.sample(b)) << "draw " << draw;
    }
  }
}

TEST(CdfSampler, IndexOfMapsQuantilesCorrectly) {
  CdfSampler sampler(std::vector<double>{1.0, 2.0, 1.0});  // cdf: .25 .75 1
  EXPECT_EQ(sampler.index_of(0.0), 0u);
  EXPECT_EQ(sampler.index_of(0.2), 0u);
  EXPECT_EQ(sampler.index_of(0.25), 1u);
  EXPECT_EQ(sampler.index_of(0.6), 1u);
  EXPECT_EQ(sampler.index_of(0.8), 2u);
  EXPECT_EQ(sampler.index_of(0.999999), 2u);
}

TEST(CdfSampler, ProbabilityRecoversWeights) {
  CdfSampler sampler(std::vector<double>{2.0, 6.0});
  EXPECT_NEAR(sampler.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.75, 1e-12);
}

TEST(CdfSampler, RejectsInvalidWeights) {
  EXPECT_THROW(CdfSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(CdfSampler(std::vector<double>{-1.0}), std::invalid_argument);
  EXPECT_THROW(CdfSampler(std::vector<double>{0.0}), std::invalid_argument);
}

TEST(CdfSampler, AgreesWithAliasTableStatistically) {
  const std::vector<double> weights = {0.5, 1.5, 3.0, 0.1, 2.9};
  AliasTable alias(weights);
  CdfSampler cdf(weights);
  util::Rng ra(6), rc(6);
  constexpr int kSamples = 200000;
  std::vector<double> fa(weights.size(), 0), fc(weights.size(), 0);
  for (int i = 0; i < kSamples; ++i) {
    fa[alias.sample(ra)] += 1.0 / kSamples;
    fc[cdf.sample(rc)] += 1.0 / kSamples;
  }
  for (std::size_t k = 0; k < weights.size(); ++k) {
    EXPECT_NEAR(fa[k], fc[k], 0.01) << "outcome " << k;
  }
}

// ---------- SampleSequence ----------

TEST(SampleSequence, WeightedSequenceMatchesDistribution) {
  const std::vector<double> weights = {1.0, 3.0};
  const auto seq = SampleSequence::weighted(weights, 100000, 7);
  EXPECT_EQ(seq.size(), 100000u);
  EXPECT_NEAR(seq.empirical_frequency(0), 0.25, 0.01);
  EXPECT_NEAR(seq.empirical_frequency(1), 0.75, 0.01);
}

TEST(SampleSequence, UniformSequenceCoversRange) {
  const auto seq = SampleSequence::uniform(10, 50000, 8);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(seq.empirical_frequency(i), 0.1, 0.02);
  }
  for (std::size_t t = 0; t < seq.size(); ++t) EXPECT_LT(seq[t], 10u);
}

TEST(SampleSequence, IsDeterministicPerSeed) {
  const std::vector<double> weights = {1.0, 2.0, 3.0};
  const auto a = SampleSequence::weighted(weights, 1000, 9);
  const auto b = SampleSequence::weighted(weights, 1000, 9);
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]);
  const auto c = SampleSequence::weighted(weights, 1000, 10);
  bool all_equal = true;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t] != c[t]) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(SampleSequence, PermutationContainsEachIndexOnce) {
  const auto seq = SampleSequence::permutation(100, 11);
  std::vector<bool> seen(100, false);
  for (std::size_t t = 0; t < seq.size(); ++t) {
    EXPECT_FALSE(seen[seq[t]]);
    seen[seq[t]] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(SampleSequence, PermutationIsShuffled) {
  const auto seq = SampleSequence::permutation(1000, 12);
  std::size_t fixed_points = 0;
  for (std::uint32_t t = 0; t < 1000; ++t) {
    if (seq[t] == t) ++fixed_points;
  }
  EXPECT_LT(fixed_points, 20u);  // E[fixed points] = 1
}

// ---------- ReshuffledSequence ----------

TEST(ReshuffledSequence, ReshufflePreservesMultiset) {
  const std::vector<double> weights = {1.0, 5.0, 2.0};
  ReshuffledSequence seq(weights, 5000, 13);
  std::map<std::uint32_t, int> before;
  for (std::size_t t = 0; t < seq.size(); ++t) ++before[seq[t]];
  seq.reshuffle();
  std::map<std::uint32_t, int> after;
  for (std::size_t t = 0; t < seq.size(); ++t) ++after[seq[t]];
  EXPECT_EQ(before, after);
}

TEST(ReshuffledSequence, ReshuffleChangesOrder) {
  ReshuffledSequence seq(std::size_t{100}, std::size_t{5000}, 14);
  std::vector<std::uint32_t> before(seq.view().begin(), seq.view().end());
  seq.reshuffle();
  std::vector<std::uint32_t> after(seq.view().begin(), seq.view().end());
  EXPECT_NE(before, after);
}

// ---------- StratifiedSequence ----------

TEST(StratifiedSequence, CoversEverySampleEveryEpoch) {
  // The property the §4.2 reshuffle approximation lacks (EXPERIMENTS.md).
  util::Rng wrng(21);
  std::vector<double> weights(500);
  for (auto& w : weights) w = util::uniform_double(wrng) + 1e-3;
  StratifiedSequence seq(weights, weights.size(), 22);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_GE(seq.visit_count(i), 1u) << "sample " << i;
  }
}

TEST(StratifiedSequence, CountsAreBestIntegerApproximation) {
  // Without the floor binding: count_i ∈ {⌊m·p_i⌋, ⌈m·p_i⌉}.
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const std::size_t m = 1000;
  StratifiedSequence seq(weights, m, 23);
  const double total = 10.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = m * weights[i] / total;
    EXPECT_GE(seq.visit_count(i), static_cast<std::size_t>(expected) - 0);
    EXPECT_LE(seq.visit_count(i), static_cast<std::size_t>(expected) + 1);
  }
}

TEST(StratifiedSequence, LengthMatchesWhenFloorDoesNotBind) {
  const std::vector<double> weights = {1.0, 1.0, 1.0, 1.0};
  StratifiedSequence seq(weights, 400, 24);
  EXPECT_EQ(seq.size(), 400u);
}

TEST(StratifiedSequence, FloorExtendsLengthOnSkewedWeights) {
  // One tiny weight among large ones: it would round to 0 visits; the floor
  // forces 1 and the sequence grows by at most n extra slots.
  std::vector<double> weights(100, 1.0);
  weights[7] = 1e-9;
  StratifiedSequence seq(weights, 100, 25);
  EXPECT_GE(seq.visit_count(7), 1u);
  EXPECT_GE(seq.size(), 100u);
  EXPECT_LE(seq.size(), 201u);
}

TEST(StratifiedSequence, ReshufflePreservesCounts) {
  util::Rng wrng(26);
  std::vector<double> weights(64);
  for (auto& w : weights) w = util::uniform_double(wrng) + 0.01;
  StratifiedSequence seq(weights, 256, 27);
  std::map<std::uint32_t, int> before;
  for (std::size_t t = 0; t < seq.size(); ++t) ++before[seq[t]];
  seq.reshuffle();
  std::map<std::uint32_t, int> after;
  for (std::size_t t = 0; t < seq.size(); ++t) ++after[seq[t]];
  EXPECT_EQ(before, after);
}

TEST(StratifiedSequence, RejectsInvalidInputs) {
  EXPECT_THROW(StratifiedSequence(std::vector<double>{}, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(StratifiedSequence(std::vector<double>{-1.0}, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(StratifiedSequence(std::vector<double>{0.0}, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(StratifiedSequence(std::vector<double>{1.0}, 0, 1),
               std::invalid_argument);
}

TEST(StratifiedSequence, ReshuffledMultisetMissesSamplesButStratifiedDoesNot) {
  // Direct head-to-head of the coverage property on equal weights.
  const std::size_t n = 1000;
  std::vector<double> weights(n, 1.0);
  ReshuffledSequence iid(weights, n, 31);
  StratifiedSequence strat(weights, n, 31);
  std::set<std::uint32_t> iid_seen(iid.view().begin(), iid.view().end());
  std::set<std::uint32_t> strat_seen(strat.view().begin(), strat.view().end());
  EXPECT_LT(iid_seen.size(), n);       // ~63% coverage
  EXPECT_EQ(strat_seen.size(), n);     // full coverage
}

TEST(ReshuffledSequence, WeightedInitialDrawMatchesDistribution) {
  const std::vector<double> weights = {1.0, 1.0, 2.0};
  ReshuffledSequence seq(weights, 100000, 15);
  std::size_t hits = 0;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    if (seq[t] == 2u) ++hits;
  }
  EXPECT_NEAR(hits / double(seq.size()), 0.5, 0.01);
}


TEST(ShardedSequence, EachEpochVisitsEveryShardAndRowExactlyOnce) {
  ShardedSequence seq({5, 3, 7, 1}, 42);
  EXPECT_EQ(seq.shard_count(), 4u);
  EXPECT_EQ(seq.total_rows(), 16u);
  for (std::size_t epoch = 1; epoch <= 3; ++epoch) {
    seq.begin_epoch(epoch);
    const auto order = seq.shard_order();
    std::set<std::uint32_t> shards(order.begin(), order.end());
    EXPECT_EQ(shards.size(), 4u);  // a permutation of the shard ordinals
    const std::size_t expected_rows[] = {5, 3, 7, 1};
    for (std::uint32_t s : order) {
      const auto rows = seq.rows(s);
      std::set<std::uint32_t> seen(rows.begin(), rows.end());
      EXPECT_EQ(seen.size(), rows.size());  // without replacement
      EXPECT_EQ(rows.size(), expected_rows[s]);
    }
  }
}

TEST(ShardedSequence, ScheduleIsAPureFunctionOfSeedEpochShard) {
  ShardedSequence a({64, 64, 64, 17}, 7);
  ShardedSequence b({64, 64, 64, 17}, 7);
  for (std::size_t epoch : {1ul, 2ul, 9ul, 2ul}) {  // incl. out-of-order replay
    a.begin_epoch(epoch);
    b.begin_epoch(epoch);
    ASSERT_TRUE(std::equal(a.shard_order().begin(), a.shard_order().end(),
                           b.shard_order().begin()));
    // Row orders match regardless of the order shards are queried in.
    for (std::size_t s : {3ul, 0ul, 2ul, 1ul}) {
      const std::vector<std::uint32_t> from_a(a.rows(s).begin(),
                                              a.rows(s).end());
      const std::vector<std::uint32_t> from_b(b.rows(s).begin(),
                                              b.rows(s).end());
      ASSERT_EQ(from_a, from_b) << "epoch " << epoch << " shard " << s;
    }
  }
}

TEST(ShardedSequence, EpochsAndShardsDrawDistinctStreams) {
  ShardedSequence seq({50, 50}, 3);
  seq.begin_epoch(1);
  const std::vector<std::uint32_t> e1s0(seq.rows(0).begin(), seq.rows(0).end());
  const std::vector<std::uint32_t> e1s1(seq.rows(1).begin(), seq.rows(1).end());
  seq.begin_epoch(2);
  const std::vector<std::uint32_t> e2s0(seq.rows(0).begin(), seq.rows(0).end());
  EXPECT_NE(e1s0, e1s1);  // same epoch, different shards
  EXPECT_NE(e1s0, e2s0);  // same shard, different epochs
}

}  // namespace
}  // namespace isasgd::sampling
