// Partition plan: the data-segmentation step of Algorithm 4 (lines 2–11).
//
// Given per-sample Lipschitz constants, a strategy (or the adaptive ρ-based
// choice) produces a row order Dr; the plan then splits Dr into numT
// contiguous shards, one per worker, and exposes each shard's rows, local
// Lipschitz slice and local sampling distribution P_tid.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace isasgd::partition {

/// Row-rearrangement strategy applied before the contiguous split.
enum class Strategy {
  kNone,           ///< identity order (unbalanced baseline, Fig. 2 top row)
  kShuffle,        ///< Random_Shuffling branch of Algorithm 4
  kHeadTail,       ///< Importance_Balancing, Algorithm 3
  kGreedyLpt,      ///< extension: greedy LPT balancing (tighter Φ spread)
  kKarmarkarKarp,  ///< extension: balanced largest-differencing (tightest Φ)
  kAdaptive,       ///< Algorithm 4's ρ-vs-ζ adaptive choice
};

[[nodiscard]] std::string strategy_name(Strategy s);
[[nodiscard]] Strategy strategy_from_name(const std::string& name);

/// Options for plan construction.
struct PartitionOptions {
  Strategy strategy = Strategy::kAdaptive;
  /// ζ, the adaptive threshold. The paper sets ζ = 5e-4 ("5^-4" in the text,
  /// matching Table 1's ρ column format where News20 has ρ = 5e-4).
  double zeta = 5e-4;
  /// If true, kAdaptive uses the literal Algorithm-4 pseudo-code test
  /// (balance when ρ ≤ ζ); default follows the §2.4 prose / §4 evaluation
  /// (balance when ρ ≥ ζ). See the note in importance.hpp.
  bool literal_pseudocode_test = false;
  std::uint64_t shuffle_seed = 0x5eed;
};

/// One worker's shard: a view of its rows (global ids) and local importance.
struct Shard {
  std::span<const std::uint32_t> rows;       ///< global row ids, |rows| = N_tid
  std::span<const double> lipschitz;         ///< L over the shard, same order
  std::span<const double> probabilities;     ///< local IS distribution P_tid
  double phi = 0;                            ///< Φ_tid = Σ local L (Eq. 18)
};

/// The frozen partition plan.
class PartitionPlan {
 public:
  /// Builds the plan: chooses/applies the ordering strategy, splits into
  /// `num_partitions` contiguous shards, computes Φ and local distributions.
  /// `lipschitz` is indexed by *global* row id. Throws
  /// std::invalid_argument on an empty dataset, a partition count outside
  /// [1, rows], or a NaN importance (the message names its row).
  PartitionPlan(std::span<const double> lipschitz, std::size_t num_partitions,
                const PartitionOptions& options = {});

  [[nodiscard]] std::size_t num_partitions() const noexcept {
    return boundaries_.size() - 1;
  }
  [[nodiscard]] std::size_t total_rows() const noexcept {
    return order_.size();
  }

  /// The strategy that was actually applied (resolves kAdaptive).
  [[nodiscard]] Strategy applied_strategy() const noexcept {
    return applied_;
  }

  /// ρ of the full Lipschitz vector (Eq. 20), computed during planning.
  [[nodiscard]] double rho() const noexcept { return rho_; }

  /// Shard for worker tid.
  [[nodiscard]] Shard shard(std::size_t tid) const;

  /// Per-shard Φ values (Eq. 18).
  [[nodiscard]] std::vector<double> phis() const;

  /// Relative Φ spread across shards ((max−min)/mean, 0 = Eq. 19 satisfied).
  [[nodiscard]] double imbalance() const;

  /// Full row order Dr (tests use it to re-derive shard assignment).
  [[nodiscard]] std::span<const std::uint32_t> order() const noexcept {
    return order_;
  }

 private:
  std::vector<std::uint32_t> order_;     // Dr
  std::vector<double> lipschitz_;        // L[Dr[k]] laid out contiguously
  std::vector<double> probabilities_;    // local P per shard, contiguous
  std::vector<std::size_t> boundaries_;  // shard k = [boundaries_[k], boundaries_[k+1])
  std::vector<double> phi_;
  Strategy applied_ = Strategy::kNone;
  double rho_ = 0;
};

}  // namespace isasgd::partition
