// Walker alias method: O(n) construction, O(1) weighted sampling.
//
// IS-ASGD's whole performance story (paper §1.3) is that importance sampling
// adds no per-iteration cost. The alias table is what makes that literal:
// drawing from p_i = L_i / Σ L_j costs one RNG call, one table lookup and one
// comparison — the same as uniform sampling up to a few nanoseconds
// (measured in bench/micro_kernels).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace isasgd::sampling {

/// Immutable alias table over a fixed weight vector.
class AliasTable {
 public:
  /// Builds from non-negative weights (need not be normalised). Throws
  /// std::invalid_argument if empty, any weight is negative/non-finite, or
  /// all weights are zero.
  explicit AliasTable(std::span<const double> weights);

  /// Number of outcomes.
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Draws one index with probability proportional to its weight.
  template <class Gen>
  [[nodiscard]] std::size_t sample(Gen& gen) const noexcept {
    const std::size_t k =
        static_cast<std::size_t>(util::uniform_index(gen, prob_.size()));
    return util::uniform_double(gen) < prob_[k] ? k : alias_[k];
  }

  /// Normalised probability of outcome i (for tests and diagnostics).
  [[nodiscard]] double probability(std::size_t i) const noexcept {
    return normalized_[i];
  }

  [[nodiscard]] std::span<const double> probabilities() const noexcept {
    return normalized_;
  }

  /// Per-bucket acceptance thresholds and fallback outcomes: the table
  /// sample() reads (tests pin them bit for bit).
  [[nodiscard]] std::span<const double> thresholds() const noexcept {
    return prob_;
  }
  [[nodiscard]] std::span<const std::uint32_t> aliases() const noexcept {
    return alias_;
  }

 private:
  std::vector<double> prob_;        // acceptance threshold per bucket
  std::vector<std::uint32_t> alias_;  // fallback outcome per bucket
  std::vector<double> normalized_;  // p_i, kept for introspection
};

}  // namespace isasgd::sampling
