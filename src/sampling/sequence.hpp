// Sample sequences (paper Algorithm 2, line 3).
//
// "IS can be implemented with no extra on-line computation by generating the
// sample sequences beforehand and let the computation threads iterate over
// the generated sequences, which leaves the computation kernel the same as
// ASGD." (§1.3)
//
// SampleSequence materialises a sequence of row indices drawn from a weight
// vector (or uniformly); ReshuffledSequence implements the §4.2 optimisation
// of generating once and Fisher–Yates-reshuffling per epoch, which removes
// even the offline regeneration cost at a small distributional approximation.
// The solvers consume neither directly any more: BlockSequence (below)
// streams the same index sequences — bit for bit — in fixed-size blocks
// from one persistent alias table, so per-worker sequence memory is
// independent of the epoch count and the table is built once per weight
// change instead of once per epoch. The materialised classes remain as the
// frozen reference the streaming contract is tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sampling/alias_table.hpp"
#include "util/rng.hpp"

namespace isasgd::sampling {

/// An immutable, pre-drawn sequence of sample indices.
class SampleSequence {
 public:
  /// Draws `length` i.i.d. indices from the weighted distribution.
  static SampleSequence weighted(std::span<const double> weights,
                                 std::size_t length, std::uint64_t seed);

  /// Draws `length` i.i.d. indices uniformly over [0, n).
  static SampleSequence uniform(std::size_t n, std::size_t length,
                                std::uint64_t seed);

  /// A permutation pass 0..n-1 shuffled (classic without-replacement epoch).
  static SampleSequence permutation(std::size_t n, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t t) const noexcept {
    return indices_[t];
  }
  [[nodiscard]] std::span<const std::uint32_t> view() const noexcept {
    return indices_;
  }

  /// Empirical frequency of index i in the sequence (for tests).
  [[nodiscard]] double empirical_frequency(std::uint32_t i) const noexcept;

 private:
  explicit SampleSequence(std::vector<std::uint32_t> indices)
      : indices_(std::move(indices)) {}
  std::vector<std::uint32_t> indices_;
};

/// Stratified (systematic-resampling) sequence: visit counts are the best
/// integer approximation of length·p_i — count_i ∈ {⌊length·p_i⌋,
/// ⌈length·p_i⌉} — optionally floored at `min_visits` so *every* sample is
/// covered each epoch. Fixes the coverage hole of the §4.2 reshuffle-once
/// approximation (an i.i.d. multiset of length m never contains ~1/e of the
/// shard; see EXPERIMENTS.md), at the cost of a slightly longer sequence
/// when the floor binds. Reshuffle per epoch like ReshuffledSequence.
class StratifiedSequence {
 public:
  /// Builds visit counts by systematic resampling over `weights` (one
  /// uniform offset, length strata), applies the floor, lays the indices
  /// out and shuffles. Throws on invalid weights (as AliasTable).
  StratifiedSequence(std::span<const double> weights, std::size_t length,
                     std::uint64_t seed, std::size_t min_visits = 1);

  /// Fisher–Yates reshuffle in place; call between epochs.
  void reshuffle();

  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t t) const noexcept {
    return indices_[t];
  }
  [[nodiscard]] std::span<const std::uint32_t> view() const noexcept {
    return indices_;
  }

  /// Visit count of sample i per epoch (for tests/diagnostics).
  [[nodiscard]] std::size_t visit_count(std::size_t i) const noexcept {
    return counts_[i];
  }

 private:
  std::vector<std::uint32_t> indices_;
  std::vector<std::size_t> counts_;
  util::Rng rng_;
};

/// Shard-major epoch schedule for out-of-core training (the sequence behind
/// data::DataSource epochs): each epoch visits every shard exactly once in a
/// freshly shuffled order, and every row within a shard exactly once in a
/// freshly shuffled order — a blocked without-replacement pass whose I/O
/// pattern is "touch each shard once per epoch", which is what makes the
/// streaming backend's LRU-cache + prefetch effective. Mini-batches are
/// contiguous slices of rows(s): a batch never spans two shards, so a batch
/// of size b touches exactly one resident shard.
///
/// Determinism contract: both the shard order and each shard's row order are
/// pure functions of (seed, epoch, shard ordinal) — independent of cache
/// state, prefetch completion order, or which backend serves the shards. A
/// streaming run and a chunked in-memory run with the same shard geometry
/// therefore perform bit-identical arithmetic (tests/determinism_test.cpp).
class ShardedSequence {
 public:
  /// `shard_sizes[s]` = rows in shard s (data::DataSource::shard_sizes()).
  ShardedSequence(std::vector<std::size_t> shard_sizes, std::uint64_t seed);

  /// Recomputes the shard visit order for `epoch` (1-based). Call before
  /// iterating an epoch.
  void begin_epoch(std::size_t epoch);

  /// Shard visit order for the current epoch.
  [[nodiscard]] std::span<const std::uint32_t> shard_order() const noexcept {
    return shard_order_;
  }

  /// Row visit order (shard-local indices) for shard s in the current
  /// epoch. The returned span aliases an internal scratch buffer that the
  /// next rows() call overwrites — consume it before fetching another
  /// shard's order (drivers process one shard at a time, so this costs one
  /// buffer, not one per shard).
  [[nodiscard]] std::span<const std::uint32_t> rows(std::size_t s);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_sizes_.size();
  }
  [[nodiscard]] std::size_t total_rows() const noexcept { return total_rows_; }

 private:
  std::vector<std::size_t> shard_sizes_;
  std::uint64_t seed_;
  std::size_t epoch_ = 0;
  std::size_t total_rows_ = 0;
  std::vector<std::uint32_t> shard_order_;
  std::vector<std::uint32_t> row_scratch_;
};

/// Epoch-reshuffled sequence (§4.2): one weighted draw up front, then each
/// epoch permutes the same multiset in place. Eliminates the per-epoch
/// regeneration cost; the multiset of visited samples stays fixed, which the
/// paper reports "works well in practice".
class ReshuffledSequence {
 public:
  ReshuffledSequence(std::span<const double> weights, std::size_t length,
                     std::uint64_t seed);

  /// Uniform variant (for ASGD with sequence-driven iteration in tests).
  ReshuffledSequence(std::size_t n, std::size_t length, std::uint64_t seed);

  /// Fisher–Yates reshuffle in place; call between epochs.
  void reshuffle();

  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t t) const noexcept {
    return indices_[t];
  }
  [[nodiscard]] std::span<const std::uint32_t> view() const noexcept {
    return indices_;
  }

 private:
  std::vector<std::uint32_t> indices_;
  util::Rng rng_;
};

/// Block-refill sample stream: the solvers' hot-path view of the sequence
/// layer. Where the pre-materialized scheme builds `epochs × length`
/// indices (and one AliasTable per epoch) before training starts, a
/// BlockSequence holds ONE persistent alias table — rebuilt only when the
/// weights change (adaptive refresh), never per epoch — and produces each
/// epoch's indices on demand in fixed-size blocks, so per-worker sequence
/// memory is O(block + n) regardless of epoch count.
///
/// Bit-compatibility contract (tests/block_sequence_test.cpp): the streamed
/// index sequence is bit-identical to the frozen pre-materialized reference
/// for every mode and every block size —
///   kIid        ≡ SampleSequence::weighted(weights, length, epoch_seed)
///                 for the epoch_seed passed to begin_epoch,
///   kReshuffle  ≡ ReshuffledSequence(weights, length, seed) reshuffled
///                 once per epoch after the first,
///   kStratified ≡ StratifiedSequence(weights, length, seed) likewise.
/// The shuffled modes keep their O(length) multiset (already independent of
/// epoch count) and are served through the same block API; the i.i.d. mode
/// is the one that drops from `epochs × length` to a single block.
class BlockSequence {
 public:
  static constexpr std::size_t kDefaultBlockSize = 1024;

  /// Mirrors SolverOptions::SequenceMode.
  enum class Mode { kIid, kReshuffle, kStratified };

  /// Builds the persistent sampler. `seed` feeds the shuffled modes'
  /// generation + reshuffle stream (exactly like the reference classes);
  /// the i.i.d. mode ignores it — each epoch's draw stream is seeded by
  /// begin_epoch. Weight validation as AliasTable (throws on empty /
  /// negative / all-zero weights).
  BlockSequence(Mode mode, std::span<const double> weights,
                std::size_t epoch_length, std::uint64_t seed,
                std::size_t block_size = kDefaultBlockSize,
                std::size_t min_visits = 1);

  /// Starts epoch `epoch` (1-based). kIid: reseeds the draw stream with
  /// `epoch_seed` — pass util::derive_seed(base, epoch - 1) to reproduce
  /// the pre-materialized per-epoch layout bit for bit, or the same seed
  /// twice to replay an epoch (the adaptive solvers replay the last
  /// refresh's stream between refreshes). Shuffled modes: reshuffles in
  /// place when epoch > 1 and ignore `epoch_seed`.
  void begin_epoch(std::size_t epoch, std::uint64_t epoch_seed = 0);

  /// Rebuilds the i.i.d. distribution in place from new weights (the
  /// adaptive-importance refresh) — one O(n) alias-table build per weight
  /// change instead of one per epoch. kIid only; throws std::logic_error
  /// for the shuffled modes (their multiset is fixed by construction).
  void rebuild(std::span<const double> weights);

  /// Indices this epoch will produce (kStratified can exceed the requested
  /// length when the ≥min_visits coverage floor binds).
  [[nodiscard]] std::size_t epoch_length() const noexcept {
    return epoch_length_;
  }

  /// Draws the next index of the current epoch. Drawing past
  /// epoch_length(), or before the first begin_epoch, throws
  /// std::logic_error from the refill (checked per refill, not per draw).
  /// Inline cursor + block refill: one branch per draw, one alias draw per
  /// index amortised.
  [[nodiscard]] std::uint32_t next() {
    if (cursor_ == block_end_) refill();
    return block_data_[cursor_++];
  }

  /// Refills and returns the next block (≤ block size) of the current
  /// epoch; empty once epoch_length() indices have been produced. Throws
  /// std::logic_error before the first begin_epoch, as next() does. View is
  /// valid until the next next_block()/next()/begin_epoch call.
  [[nodiscard]] std::span<const std::uint32_t> next_block();

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  // ---- checkpoint cursor export/rewind (solvers/snapshot.hpp) ----

  /// The epoch of the last begin_epoch call (0 before the first) — the
  /// epoch-fence cursor a checkpoint records.
  [[nodiscard]] std::size_t current_epoch() const noexcept { return epoch_; }

  /// Indices handed out since the last begin_epoch — the intra-epoch
  /// cursor. Checkpoints are taken at epoch fences, where this equals
  /// epoch_length(); exported for diagnostics and corruption checks.
  [[nodiscard]] std::size_t produced() const noexcept { return produced_; }

  /// Fast-forwards a freshly built sequence to the state just after epoch
  /// `epoch`'s fence: the shuffled modes replay their per-epoch reshuffles
  /// (their generation stream is the only cross-epoch sampler state — the
  /// multiset walk itself never advances it), the i.i.d. mode has nothing
  /// to replay (begin_epoch reseeds its draw stream per epoch). After the
  /// call the stream is exhausted, exactly as at a real fence; the next
  /// begin_epoch(epoch + 1, ...) continues bit-identically to a sequence
  /// that trained through epochs 1..epoch. Throws std::logic_error on a
  /// backwards rewind (reshuffle streams cannot run in reverse).
  void rewind_to(std::size_t epoch);

 private:
  void refill();

  Mode mode_;
  std::size_t block_size_;
  std::size_t epoch_length_ = 0;
  std::size_t epoch_ = 0;     ///< last begin_epoch ordinal (0 = none yet)
  std::size_t produced_ = 0;  ///< indices handed out this epoch
  // Current block window: for kIid `buffer_` is one block refilled from the
  // alias table; for the shuffled modes it is the whole multiset and the
  // window walks it without copying.
  const std::uint32_t* block_data_ = nullptr;
  std::size_t cursor_ = 0;
  std::size_t block_end_ = 0;
  std::vector<std::uint32_t> buffer_;
  // kIid state: persistent table + per-epoch draw stream.
  std::optional<AliasTable> table_;
  util::Rng draw_rng_;
  // Shuffled-mode state: the reference class IS the implementation, so the
  // bit-compat contract cannot drift.
  std::unique_ptr<ReshuffledSequence> reshuffled_;
  std::unique_ptr<StratifiedSequence> stratified_;
};

}  // namespace isasgd::sampling
