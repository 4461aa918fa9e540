#include "sampling/alias_table.hpp"

#include <cmath>
#include <stdexcept>

namespace isasgd::sampling {

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weights");
  double total = 0;
  for (double w : weights) {
    if (!(w >= 0) || !std::isfinite(w)) {
      throw std::invalid_argument("AliasTable: weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("AliasTable: all weights zero");

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  // Vose's stable construction: partition outcomes into under-full and
  // over-full buckets relative to the uniform level 1/n, then pair them.
  // prob_ holds each bucket's scaled mass n·p_i while the pairing runs, and
  // one n-slot array holds both work lists — `small` grows up from the
  // front, `large` down from the back; no outcome is on both at once.
  prob_.resize(n);
  alias_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = normalized_[i] * static_cast<double>(n);
    alias_[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> work(n);
  std::size_t small = 0, large = n;  // work[0, small) and work[large, n)
  for (std::size_t i = 0; i < n; ++i) {
    if (prob_[i] < 1.0) {
      work[small++] = static_cast<std::uint32_t>(i);
    } else {
      work[--large] = static_cast<std::uint32_t>(i);
    }
  }
  // Both lists pop from their last push: small at work[small - 1], large at
  // work[large], the order two separate stacks would give.
  while (small > 0 && large < n) {
    const std::uint32_t s = work[--small];
    const std::uint32_t l = work[large];
    alias_[s] = l;
    prob_[l] -= 1.0 - prob_[s];
    if (prob_[l] < 1.0) {
      ++large;
      work[small++] = l;
    }
  }
  // Leftovers (floating-point residue): saturate to probability 1.
  for (std::size_t k = 0; k < small; ++k) prob_[work[k]] = 1.0;
  for (std::size_t k = large; k < n; ++k) prob_[work[k]] = 1.0;
}

}  // namespace isasgd::sampling
