#include "sampling/sequence.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace isasgd::sampling {

SampleSequence SampleSequence::weighted(std::span<const double> weights,
                                        std::size_t length,
                                        std::uint64_t seed) {
  AliasTable table(weights);
  util::Rng rng(seed);
  std::vector<std::uint32_t> out(length);
  for (auto& v : out) v = static_cast<std::uint32_t>(table.sample(rng));
  return SampleSequence(std::move(out));
}

SampleSequence SampleSequence::uniform(std::size_t n, std::size_t length,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> out(length);
  for (auto& v : out) {
    v = static_cast<std::uint32_t>(util::uniform_index(rng, n));
  }
  return SampleSequence(std::move(out));
}

SampleSequence SampleSequence::permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> out(n);
  std::iota(out.begin(), out.end(), 0u);
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = util::uniform_index(rng, i);
    std::swap(out[i - 1], out[j]);
  }
  return SampleSequence(std::move(out));
}

double SampleSequence::empirical_frequency(std::uint32_t i) const noexcept {
  if (indices_.empty()) return 0.0;
  const auto count = std::count(indices_.begin(), indices_.end(), i);
  return static_cast<double>(count) / static_cast<double>(indices_.size());
}

StratifiedSequence::StratifiedSequence(std::span<const double> weights,
                                       std::size_t length, std::uint64_t seed,
                                       std::size_t min_visits)
    : rng_(seed) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("StratifiedSequence: empty weights");
  double total = 0;
  for (double w : weights) {
    if (!(w >= 0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "StratifiedSequence: weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0) {
    throw std::invalid_argument("StratifiedSequence: all weights zero");
  }
  if (length == 0) {
    throw std::invalid_argument("StratifiedSequence: zero length");
  }

  // Systematic resampling: one uniform offset, `length` equally spaced
  // strata over the cumulative distribution. count_i = number of strata
  // points landing in i's probability interval — the minimum-variance
  // unbiased integerisation of length·p_i.
  counts_.assign(n, 0);
  const double u = util::uniform_double(rng_);
  double cumulative = 0;
  std::size_t k = 0;  // next stratum index
  for (std::size_t i = 0; i < n; ++i) {
    cumulative += weights[i] / total;
    while (k < length &&
           (static_cast<double>(k) + u) / static_cast<double>(length) <
               cumulative) {
      ++counts_[i];
      ++k;
    }
  }
  // Floating-point slack: assign any unplaced strata to the last outcome.
  for (; k < length; ++k) ++counts_[n - 1];

  // Coverage floor.
  for (auto& c : counts_) c = std::max(c, min_visits);

  std::size_t total_visits = 0;
  for (std::size_t c : counts_) total_visits += c;
  indices_.reserve(total_visits);
  for (std::size_t i = 0; i < n; ++i) {
    indices_.insert(indices_.end(), counts_[i],
                    static_cast<std::uint32_t>(i));
  }
  reshuffle();
}

void StratifiedSequence::reshuffle() {
  for (std::size_t i = indices_.size(); i > 1; --i) {
    const std::size_t j = util::uniform_index(rng_, i);
    std::swap(indices_[i - 1], indices_[j]);
  }
}

ShardedSequence::ShardedSequence(std::vector<std::size_t> shard_sizes,
                                 std::uint64_t seed)
    : shard_sizes_(std::move(shard_sizes)), seed_(seed) {
  for (std::size_t rows : shard_sizes_) total_rows_ += rows;
  shard_order_.resize(shard_sizes_.size());
  begin_epoch(1);
}

void ShardedSequence::begin_epoch(std::size_t epoch) {
  epoch_ = epoch;
  std::iota(shard_order_.begin(), shard_order_.end(), 0u);
  // Seeded from (seed, epoch) only — never from how the previous epoch was
  // consumed — so schedules are identical across backends and replays.
  util::Rng rng(util::derive_seed(seed_, epoch));
  for (std::size_t i = shard_order_.size(); i > 1; --i) {
    const std::size_t j = util::uniform_index(rng, i);
    std::swap(shard_order_[i - 1], shard_order_[j]);
  }
}

std::span<const std::uint32_t> ShardedSequence::rows(std::size_t s) {
  const std::size_t rows = shard_sizes_.at(s);
  row_scratch_.resize(rows);
  std::iota(row_scratch_.begin(), row_scratch_.end(), 0u);
  // Pure function of (seed, epoch, shard): interleave the shard ordinal into
  // the seed derivation so two shards of one epoch draw distinct streams.
  util::Rng rng(util::derive_seed(util::derive_seed(seed_, epoch_), s + 1));
  for (std::size_t i = rows; i > 1; --i) {
    const std::size_t j = util::uniform_index(rng, i);
    std::swap(row_scratch_[i - 1], row_scratch_[j]);
  }
  return row_scratch_;
}

ReshuffledSequence::ReshuffledSequence(std::span<const double> weights,
                                       std::size_t length, std::uint64_t seed)
    : rng_(seed) {
  AliasTable table(weights);
  indices_.resize(length);
  for (auto& v : indices_) v = static_cast<std::uint32_t>(table.sample(rng_));
}

ReshuffledSequence::ReshuffledSequence(std::size_t n, std::size_t length,
                                       std::uint64_t seed)
    : rng_(seed) {
  indices_.resize(length);
  for (auto& v : indices_) {
    v = static_cast<std::uint32_t>(util::uniform_index(rng_, n));
  }
}

void ReshuffledSequence::reshuffle() {
  for (std::size_t i = indices_.size(); i > 1; --i) {
    const std::size_t j = util::uniform_index(rng_, i);
    std::swap(indices_[i - 1], indices_[j]);
  }
}

BlockSequence::BlockSequence(Mode mode, std::span<const double> weights,
                             std::size_t epoch_length, std::uint64_t seed,
                             std::size_t block_size, std::size_t min_visits)
    : mode_(mode), block_size_(std::max<std::size_t>(1, block_size)) {
  switch (mode_) {
    case Mode::kIid:
      table_.emplace(weights);  // once — never again unless rebuild()
      epoch_length_ = epoch_length;
      buffer_.resize(std::min(block_size_, epoch_length_));
      block_data_ = buffer_.data();
      break;
    case Mode::kReshuffle:
      reshuffled_ = std::make_unique<ReshuffledSequence>(weights, epoch_length,
                                                         seed);
      epoch_length_ = reshuffled_->size();
      break;
    case Mode::kStratified:
      stratified_ = std::make_unique<StratifiedSequence>(weights, epoch_length,
                                                         seed, min_visits);
      epoch_length_ = stratified_->size();
      break;
  }
  // Until begin_epoch, the stream is exhausted (refill throws on a draw
  // attempt).
  produced_ = epoch_length_;
  cursor_ = block_end_ = 0;
}

void BlockSequence::begin_epoch(std::size_t epoch, std::uint64_t epoch_seed) {
  switch (mode_) {
    case Mode::kIid:
      draw_rng_.reseed(epoch_seed);
      break;
    case Mode::kReshuffle:
      if (epoch > 1) reshuffled_->reshuffle();
      block_data_ = reshuffled_->view().data();
      break;
    case Mode::kStratified:
      if (epoch > 1) stratified_->reshuffle();
      block_data_ = stratified_->view().data();
      break;
  }
  epoch_ = epoch;
  produced_ = 0;
  cursor_ = block_end_ = 0;
}

void BlockSequence::rewind_to(std::size_t epoch) {
  if (epoch < epoch_) {
    throw std::logic_error(
        "BlockSequence::rewind_to: cannot rewind backwards (at epoch " +
        std::to_string(epoch_) + ", requested " + std::to_string(epoch) +
        ") — rebuild the sequence and fast-forward instead");
  }
  // Only the shuffled modes carry cross-epoch sampler state (the reshuffle
  // stream advanced by each begin_epoch); replay exactly those calls. The
  // epoch_seed is irrelevant here — the shuffled modes ignore it, and the
  // i.i.d. mode's stream is reseeded by the next real begin_epoch anyway.
  if (mode_ != Mode::kIid) {
    for (std::size_t e = epoch_ + 1; e <= epoch; ++e) begin_epoch(e);
  }
  epoch_ = epoch;
  // Epoch `epoch` was fully consumed before the fence the caller is
  // restoring; mark the stream exhausted until the next begin_epoch.
  produced_ = epoch_length_;
  cursor_ = block_end_ = 0;
}

void BlockSequence::rebuild(std::span<const double> weights) {
  if (mode_ != Mode::kIid) {
    throw std::logic_error(
        "BlockSequence::rebuild: only the i.i.d. mode re-weights in place "
        "(the shuffled modes' multiset is fixed at construction)");
  }
  table_.emplace(weights);
}

void BlockSequence::refill() {
  // next() past epoch_length(), or before the first begin_epoch, lands
  // here with nothing left to produce — a caller bug. Loud in every build:
  // the alternative is silently re-serving stale indices into a solver.
  // Costs one branch per *refill*, never per draw.
  if (produced_ >= epoch_length_) {
    throw std::logic_error(
        "BlockSequence: next() past epoch_length() or before begin_epoch()");
  }
  const std::size_t remaining = epoch_length_ - produced_;
  const std::size_t count = std::min(block_size_, remaining);
  switch (mode_) {
    case Mode::kIid:
      // One alias draw per index — identical stream to the pre-materialized
      // SampleSequence::weighted under the same (weights, epoch seed).
      for (std::size_t k = 0; k < count; ++k) {
        buffer_[k] = static_cast<std::uint32_t>(table_->sample(draw_rng_));
      }
      block_data_ = buffer_.data();
      cursor_ = 0;
      block_end_ = count;
      break;
    case Mode::kReshuffle:
    case Mode::kStratified:
      // Zero copy: the window slides over the reference class's multiset.
      cursor_ = produced_;
      block_end_ = produced_ + count;
      break;
  }
  produced_ += count;
}

std::span<const std::uint32_t> BlockSequence::next_block() {
  // Serve whatever the cursor has not consumed yet, refilling when drained —
  // mixing next() and next_block() never skips or repeats an index.
  if (cursor_ == block_end_) {
    // Before the first begin_epoch there is no epoch to report as drained:
    // an empty span here would let a block loop train zero steps silently.
    if (epoch_ == 0) {
      throw std::logic_error(
          "BlockSequence: next_block() before begin_epoch()");
    }
    if (produced_ == epoch_length_) return {};
    refill();
  }
  const std::span<const std::uint32_t> out(block_data_ + cursor_,
                                           block_end_ - cursor_);
  cursor_ = block_end_;
  return out;
}

}  // namespace isasgd::sampling
