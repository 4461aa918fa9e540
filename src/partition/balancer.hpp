// Dataset rearrangement strategies run before the contiguous split across
// worker threads (paper §2.4, Algorithm 3).
//
// All balancers return a permutation `order` of row indices; the partitioner
// then assigns order[tid·n/numT .. (tid+1)·n/numT) to thread tid, exactly as
// Algorithm 4 line 9 does.
//
// The importance balancers order rows by value with ties in row order —
// the permutation iota + std::stable_sort yields — through one stable LSD
// radix order (detail::value_order). They reject a NaN importance with
// std::invalid_argument naming its row; every other double (±0.0,
// denormals, ±inf, negatives) is ordered as `<` orders it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace isasgd::partition {

/// Algorithm 3: sort rows by L_i, then interleave head and tail
/// (Ds[0], Ds[n−1], Ds[1], Ds[n−2], …) so that every contiguous block mixes
/// heavy and light samples. Fast O(n) approximation (a radix order) to the
/// NP-hard equal-importance partition problem.
std::vector<std::uint32_t> head_tail_balance(std::span<const double> lipschitz);

/// Uniform random permutation (Algorithm 4's alternative branch).
std::vector<std::uint32_t> random_shuffle(std::size_t n, std::uint64_t seed);

/// Identity order — the unbalanced straw man (what raw data segmentation
/// does, §2.3's Figure-2 top row).
std::vector<std::uint32_t> identity_order(std::size_t n);

/// Extension (not in the paper): greedy longest-processing-time assignment.
/// Sorts by descending L_i and deals each sample to the partition with the
/// currently smallest Φ, then returns an order that interleaves partitions so
/// the contiguous split reproduces the assignment. Produces strictly tighter
/// Φ spread than head-tail on skewed distributions; the ablation bench
/// quantifies the gap.
std::vector<std::uint32_t> greedy_lpt_balance(std::span<const double> lipschitz,
                                              std::size_t num_partitions);

/// Extension (not in the paper): balanced largest-differencing (Karmarkar–
/// Karp) assignment. Items are sorted by descending L_i and grouped into
/// chunks of `num_partitions`; each chunk seeds a k-tuple of singleton
/// buckets, and tuples are repeatedly merged largest-spread-first, pairing
/// the heavier tuple's buckets descending against the lighter's ascending.
/// Every bucket receives exactly one item per chunk, so bucket cardinalities
/// stay equal — the contiguous split recovers the assignment exactly.
/// Differencing dominates greedy LPT on adversarial weight distributions
/// (the classic number-partitioning result); `ablation_balancing` measures
/// the gap on the lognormal importance profiles the datasets produce.
std::vector<std::uint32_t> karmarkar_karp_balance(
    std::span<const double> lipschitz, std::size_t num_partitions);

namespace detail {
/// The stable row order of `values`: ascending, or descending when
/// `descending`, with equal values (−0.0 equals +0.0) in row order. For
/// every NaN-free input it is the permutation iota + std::stable_sort with
/// `<` (or `>`) yields, computed as an LSD radix sort over an
/// order-preserving map of each double's bits in O(n) time and scratch.
/// A NaN gets a well-defined but meaningless place; callers reject it.
std::vector<std::uint32_t> value_order(std::span<const double> values,
                                       bool descending);

/// The balancers' deals from a sorted row order: Algorithm 3's head-tail
/// interleave of an ascending order, and the greedy-LPT and differencing
/// assignments of a descending one (differencing needs n ≥ 1 and
/// num_partitions ≥ 2; its balancer returns the identity otherwise).
std::vector<std::uint32_t> head_tail_deal(std::span<const std::uint32_t> sorted);
std::vector<std::uint32_t> greedy_lpt_deal(std::span<const double> lipschitz,
                                           std::span<const std::uint32_t> sorted,
                                           std::size_t num_partitions);
std::vector<std::uint32_t> karmarkar_karp_deal(
    std::span<const double> lipschitz, std::span<const std::uint32_t> sorted,
    std::size_t num_partitions);

/// Throws std::invalid_argument("<who>: NaN importance at row <i>") for the
/// first NaN in `lipschitz`: no order or Φ sum is defined over it.
void reject_nan(std::span<const double> lipschitz, const char* who);

/// Per-partition sample counts that exactly match PartitionPlan's contiguous
/// boundaries (shard a = [n·a/k, n·(a+1)/k)). Balancers that assign samples
/// to explicit buckets must respect these capacities or the block split will
/// not recover their assignment.
std::vector<std::size_t> split_capacities(std::size_t n,
                                          std::size_t num_partitions);
}  // namespace detail

}  // namespace isasgd::partition
