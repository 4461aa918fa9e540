// BlockSequence bit-compatibility: the streamed block-refill sequences must
// reproduce the frozen pre-materialized reference classes bit for bit, for
// every SequenceMode and the adaptive rebuild path, across seeds and block
// sizes straddling n. This is the contract that lets the solvers stream
// O(block)-memory sequences without perturbing a single recorded trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sampling/sequence.hpp"
#include "util/rng.hpp"

namespace isasgd::sampling {
namespace {

std::vector<double> make_weights(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = util::uniform_double(rng) + 0.01;
  return w;
}

/// Drains one epoch through next(), which is how the solver hot loops
/// consume the stream.
std::vector<std::uint32_t> drain_next(BlockSequence& seq) {
  std::vector<std::uint32_t> out(seq.epoch_length());
  for (auto& v : out) v = seq.next();
  return out;
}

/// Drains one epoch through next_block(), the bulk consumer API.
std::vector<std::uint32_t> drain_blocks(BlockSequence& seq) {
  std::vector<std::uint32_t> out;
  for (auto block = seq.next_block(); !block.empty();
       block = seq.next_block()) {
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

const std::size_t kEpochs = 4;
const std::uint64_t kSeeds[] = {1, 42, 0x9e3779b97f4a7c15ULL};

/// Block sizes straddling n for n = 100: smaller than, dividing, one off
/// either side, equal, and larger than the epoch length.
std::vector<std::size_t> straddling_blocks(std::size_t n) {
  return {1, 3, n / 2, n - 1, n, n + 5, 4 * n};
}

TEST(BlockSequence, IidMatchesPreMaterializedSampleSequences) {
  const std::size_t n = 100;
  for (std::uint64_t seed : kSeeds) {
    const auto weights = make_weights(n, seed + 1);
    for (std::size_t block : straddling_blocks(n)) {
      BlockSequence seq(BlockSequence::Mode::kIid, weights, n, seed, block);
      for (std::size_t epoch = 1; epoch <= kEpochs; ++epoch) {
        const auto reference = SampleSequence::weighted(
            weights, n, util::derive_seed(seed, epoch - 1));
        seq.begin_epoch(epoch, util::derive_seed(seed, epoch - 1));
        const auto streamed =
            (epoch % 2 == 1) ? drain_next(seq) : drain_blocks(seq);
        ASSERT_EQ(streamed.size(), reference.size());
        for (std::size_t t = 0; t < n; ++t) {
          ASSERT_EQ(streamed[t], reference[t])
              << "seed=" << seed << " block=" << block << " epoch=" << epoch
              << " t=" << t;
        }
      }
    }
  }
}

TEST(BlockSequence, ReshuffleMatchesReshuffledSequence) {
  const std::size_t n = 100;
  for (std::uint64_t seed : kSeeds) {
    const auto weights = make_weights(n, seed + 7);
    for (std::size_t block : straddling_blocks(n)) {
      BlockSequence seq(BlockSequence::Mode::kReshuffle, weights, n, seed,
                        block);
      ReshuffledSequence reference(weights, n, seed);
      for (std::size_t epoch = 1; epoch <= kEpochs; ++epoch) {
        if (epoch > 1) reference.reshuffle();
        seq.begin_epoch(epoch);
        const auto streamed =
            (epoch % 2 == 1) ? drain_blocks(seq) : drain_next(seq);
        ASSERT_EQ(streamed.size(), reference.size());
        for (std::size_t t = 0; t < n; ++t) {
          ASSERT_EQ(streamed[t], reference[t])
              << "seed=" << seed << " block=" << block << " epoch=" << epoch;
        }
      }
    }
  }
}

TEST(BlockSequence, StratifiedMatchesStratifiedSequence) {
  const std::size_t n = 100;
  for (std::uint64_t seed : kSeeds) {
    // Skewed weights so the ≥1-visit floor binds and the epoch length
    // exceeds the requested one — the stream must follow.
    auto weights = make_weights(n, seed + 13);
    weights[0] = 50.0;
    weights[1] = 25.0;
    for (std::size_t block : straddling_blocks(n)) {
      BlockSequence seq(BlockSequence::Mode::kStratified, weights, n, seed,
                        block);
      StratifiedSequence reference(weights, n, seed);
      ASSERT_EQ(seq.epoch_length(), reference.size());
      for (std::size_t epoch = 1; epoch <= kEpochs; ++epoch) {
        if (epoch > 1) reference.reshuffle();
        seq.begin_epoch(epoch);
        const auto streamed = drain_next(seq);
        ASSERT_EQ(streamed.size(), reference.size());
        for (std::size_t t = 0; t < streamed.size(); ++t) {
          ASSERT_EQ(streamed[t], reference[t])
              << "seed=" << seed << " block=" << block << " epoch=" << epoch;
        }
      }
    }
  }
}

TEST(BlockSequence, AdaptiveRebuildMatchesRegeneratedSequences) {
  // The adaptive path: rebuild() with refreshed weights + a new stream
  // seed must equal a freshly materialized SampleSequence over the same
  // weights; replaying the same stream seed between refreshes must equal
  // replaying the materialized sequence.
  const std::size_t n = 64;
  for (std::uint64_t seed : kSeeds) {
    const auto w1 = make_weights(n, seed + 3);
    const auto w2 = make_weights(n, seed + 4);
    for (std::size_t block : {std::size_t{1}, std::size_t{17}, n, 3 * n}) {
      BlockSequence seq(BlockSequence::Mode::kIid, w1, n, seed, block);
      const std::uint64_t s1 = util::derive_seed(seed, 7001);
      const auto ref1 = SampleSequence::weighted(w1, n, s1);
      seq.begin_epoch(1, s1);
      EXPECT_EQ(drain_next(seq), std::vector<std::uint32_t>(
                                     ref1.view().begin(), ref1.view().end()));
      // Replay between refreshes: same seed, same table → same stream.
      seq.begin_epoch(2, s1);
      EXPECT_EQ(drain_blocks(seq), std::vector<std::uint32_t>(
                                       ref1.view().begin(), ref1.view().end()));
      // Refresh: new weights, new stream seed.
      seq.rebuild(w2);
      const std::uint64_t s2 = util::derive_seed(seed, 7003);
      const auto ref2 = SampleSequence::weighted(w2, n, s2);
      seq.begin_epoch(3, s2);
      EXPECT_EQ(drain_next(seq), std::vector<std::uint32_t>(
                                     ref2.view().begin(), ref2.view().end()));
    }
  }
}

TEST(BlockSequence, MixedNextAndBlockConsumptionNeverSkipsOrRepeats) {
  const std::size_t n = 101;  // prime-ish so blocks never align
  const auto weights = make_weights(n, 5);
  BlockSequence seq(BlockSequence::Mode::kIid, weights, n, 0, /*block=*/8);
  const auto reference = SampleSequence::weighted(weights, n, 77);
  seq.begin_epoch(1, 77);
  std::vector<std::uint32_t> streamed;
  bool use_next = true;
  while (streamed.size() < n) {
    if (use_next) {
      streamed.push_back(seq.next());
    } else {
      const auto block = seq.next_block();
      streamed.insert(streamed.end(), block.begin(), block.end());
    }
    use_next = !use_next;
  }
  ASSERT_EQ(streamed.size(), n);
  for (std::size_t t = 0; t < n; ++t) EXPECT_EQ(streamed[t], reference[t]);
}

TEST(BlockSequence, OverDrawAndDrawBeforeBeginEpochThrow) {
  const auto weights = make_weights(8, 21);
  BlockSequence fresh(BlockSequence::Mode::kIid, weights, 8, 1);
  EXPECT_THROW((void)fresh.next(), std::logic_error);  // before begin_epoch
  EXPECT_THROW((void)fresh.next_block(), std::logic_error);  // bulk API too
  BlockSequence seq(BlockSequence::Mode::kIid, weights, 8, 1, /*block=*/3);
  seq.begin_epoch(1, 5);
  for (std::size_t t = 0; t < 8; ++t) (void)seq.next();
  EXPECT_THROW((void)seq.next(), std::logic_error);  // past epoch_length
  EXPECT_TRUE(seq.next_block().empty());  // bulk API reports exhaustion
  seq.begin_epoch(2, 6);  // recoverable: the next epoch streams normally
  EXPECT_EQ(drain_next(seq).size(), 8u);
}

TEST(BlockSequence, RebuildRejectsShuffledModes) {
  const auto weights = make_weights(16, 9);
  BlockSequence resh(BlockSequence::Mode::kReshuffle, weights, 16, 1);
  EXPECT_THROW(resh.rebuild(weights), std::logic_error);
  BlockSequence strat(BlockSequence::Mode::kStratified, weights, 16, 1);
  EXPECT_THROW(strat.rebuild(weights), std::logic_error);
}

TEST(BlockSequence, InvalidWeightsThrowLikeAliasTable) {
  EXPECT_THROW(
      BlockSequence(BlockSequence::Mode::kIid, std::vector<double>{}, 4, 1),
      std::invalid_argument);
  EXPECT_THROW(BlockSequence(BlockSequence::Mode::kIid,
                             std::vector<double>{-1.0}, 4, 1),
               std::invalid_argument);
  EXPECT_THROW(BlockSequence(BlockSequence::Mode::kStratified,
                             std::vector<double>{0.0, 0.0}, 4, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace isasgd::sampling
