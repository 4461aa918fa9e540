#include "partition/partition.hpp"

#include <stdexcept>

#include "partition/balancer.hpp"
#include "partition/importance.hpp"

namespace isasgd::partition {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kNone: return "none";
    case Strategy::kShuffle: return "shuffle";
    case Strategy::kHeadTail: return "head_tail";
    case Strategy::kGreedyLpt: return "greedy_lpt";
    case Strategy::kKarmarkarKarp: return "karmarkar_karp";
    case Strategy::kAdaptive: return "adaptive";
  }
  return "?";
}

Strategy strategy_from_name(const std::string& name) {
  if (name == "none") return Strategy::kNone;
  if (name == "shuffle") return Strategy::kShuffle;
  if (name == "head_tail") return Strategy::kHeadTail;
  if (name == "greedy_lpt") return Strategy::kGreedyLpt;
  if (name == "karmarkar_karp") return Strategy::kKarmarkarKarp;
  if (name == "adaptive") return Strategy::kAdaptive;
  throw std::invalid_argument("strategy_from_name: unknown strategy '" + name +
                              "'");
}

PartitionPlan::PartitionPlan(std::span<const double> lipschitz,
                             std::size_t num_partitions,
                             const PartitionOptions& options) {
  const std::size_t n = lipschitz.size();
  if (n == 0) throw std::invalid_argument("PartitionPlan: empty dataset");
  if (num_partitions == 0 || num_partitions > n) {
    throw std::invalid_argument(
        "PartitionPlan: need 1 <= partitions <= rows, got " +
        std::to_string(num_partitions) + " over " + std::to_string(n));
  }
  // A NaN would poison ρ (and with it the adaptive choice), every Φ, and
  // the balancers' order: reject it before any of them.
  detail::reject_nan(lipschitz, "PartitionPlan");

  rho_ = importance_variance(lipschitz);
  Strategy chosen = options.strategy;
  if (chosen == Strategy::kAdaptive) {
    // Algorithm 4 lines 2–6; see importance.hpp for the direction-of-test
    // discussion.
    const bool balance = options.literal_pseudocode_test
                             ? (rho_ <= options.zeta)
                             : (rho_ >= options.zeta);
    chosen = balance ? Strategy::kHeadTail : Strategy::kShuffle;
  }
  applied_ = chosen;

  switch (chosen) {
    case Strategy::kNone:
      order_ = identity_order(n);
      break;
    case Strategy::kShuffle:
      order_ = random_shuffle(n, options.shuffle_seed);
      break;
    case Strategy::kHeadTail:
      order_ = head_tail_balance(lipschitz);
      break;
    case Strategy::kGreedyLpt:
      order_ = greedy_lpt_balance(lipschitz, num_partitions);
      break;
    case Strategy::kKarmarkarKarp:
      order_ = karmarkar_karp_balance(lipschitz, num_partitions);
      break;
    case Strategy::kAdaptive:
      throw std::logic_error("unreachable");
  }

  // Contiguous split (Algorithm 4 line 9): shard tid gets
  // Dr[n·tid/numT : n·(tid+1)/numT).
  boundaries_.resize(num_partitions + 1);
  for (std::size_t a = 0; a <= num_partitions; ++a) {
    boundaries_[a] = n * a / num_partitions;
  }

  // Local Lipschitz slices and sampling distributions (Algorithm 4 lines
  // 10–11): P_tid[i] = L_i / Φ_tid.
  lipschitz_.resize(n);
  probabilities_.resize(n);
  phi_.assign(num_partitions, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    lipschitz_[k] = lipschitz[order_[k]];
  }
  for (std::size_t a = 0; a < num_partitions; ++a) {
    double phi = 0;
    for (std::size_t k = boundaries_[a]; k < boundaries_[a + 1]; ++k) {
      phi += lipschitz_[k];
    }
    phi_[a] = phi;
    for (std::size_t k = boundaries_[a]; k < boundaries_[a + 1]; ++k) {
      // Degenerate all-zero shard: fall back to uniform so the sampler
      // stays well-defined.
      probabilities_[k] =
          phi > 0 ? lipschitz_[k] / phi
                  : 1.0 / static_cast<double>(boundaries_[a + 1] - boundaries_[a]);
    }
  }
}

Shard PartitionPlan::shard(std::size_t tid) const {
  if (tid >= num_partitions()) {
    throw std::out_of_range("PartitionPlan::shard: tid out of range");
  }
  const std::size_t begin = boundaries_[tid], end = boundaries_[tid + 1];
  return Shard{
      .rows = {order_.data() + begin, end - begin},
      .lipschitz = {lipschitz_.data() + begin, end - begin},
      .probabilities = {probabilities_.data() + begin, end - begin},
      .phi = phi_[tid],
  };
}

std::vector<double> PartitionPlan::phis() const { return phi_; }

double PartitionPlan::imbalance() const { return importance_imbalance(phi_); }

}  // namespace isasgd::partition
