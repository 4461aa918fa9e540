#include "partition/balancer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace isasgd::partition {

namespace {

/// Order-preserving map of a double onto an unsigned key. −0.0 becomes
/// +0.0 first, since `<` holds them equal; then a negative flips every bit
/// and a non-negative sets the sign bit, so unsigned key order is `<`'s
/// order for every non-NaN double, denormals and ±inf included.
std::uint64_t order_key(double v) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  if (bits == kSign) bits = 0;
  return (bits & kSign) ? ~bits : bits | kSign;
}

}  // namespace

std::vector<std::uint32_t> detail::value_order(std::span<const double> values,
                                               bool descending) {
  // Six 11-bit digits cover the 64-bit key, and each digit's 2,048-bucket
  // histogram fits in L1. Descending order is the ascending order of the
  // complemented key, so equal values keep row order either way.
  constexpr unsigned kDigitBits = 11;
  constexpr unsigned kPasses = (64 + kDigitBits - 1) / kDigitBits;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::uint64_t kMask = kBuckets - 1;
  const std::size_t n = values.size();
  const std::uint64_t flip = descending ? ~std::uint64_t{0} : 0;

  std::vector<std::uint64_t> keys(n), keys_next(n);
  std::vector<std::uint32_t> rows(n), rows_next(n);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<std::array<std::uint32_t, kBuckets>> counts(kPasses);
  for (auto& c : counts) c.fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = order_key(values[i]) ^ flip;
    keys[i] = key;
    for (unsigned p = 0; p < kPasses; ++p) {
      ++counts[p][(key >> (p * kDigitBits)) & kMask];
    }
  }

  // Each pass is a stable counting scatter on one digit; a digit every key
  // shares would move nothing, so its pass is skipped.
  for (unsigned p = 0; p < kPasses; ++p) {
    auto& count = counts[p];
    const unsigned shift = p * kDigitBits;
    if (n == 0 || count[(keys[0] >> shift) & kMask] == n) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = offset;
      offset += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t slot = count[(keys[i] >> shift) & kMask]++;
      keys_next[slot] = keys[i];
      rows_next[slot] = rows[i];
    }
    keys.swap(keys_next);
    rows.swap(rows_next);
  }
  return rows;
}

void detail::reject_nan(std::span<const double> lipschitz, const char* who) {
  for (std::size_t i = 0; i < lipschitz.size(); ++i) {
    if (std::isnan(lipschitz[i])) {
      throw std::invalid_argument(std::string(who) +
                                  ": NaN importance at row " +
                                  std::to_string(i));
    }
  }
}

std::vector<std::uint32_t> head_tail_balance(std::span<const double> lipschitz) {
  detail::reject_nan(lipschitz, "head_tail_balance");
  return detail::head_tail_deal(
      detail::value_order(lipschitz, /*descending=*/false));
}

std::vector<std::uint32_t> detail::head_tail_deal(
    std::span<const std::uint32_t> sorted) {
  const std::size_t n = sorted.size();
  // Algorithm 3 lines 4–8: pair Ds[i] with Ds[n-1-i].
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    out.push_back(sorted[i]);
    out.push_back(sorted[n - 1 - i]);
  }
  if (n % 2) out.push_back(sorted[n / 2]);
  return out;
}

std::vector<std::uint32_t> random_shuffle(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> out(n);
  std::iota(out.begin(), out.end(), 0u);
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = util::uniform_index(rng, i);
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

std::vector<std::uint32_t> identity_order(std::size_t n) {
  std::vector<std::uint32_t> out(n);
  std::iota(out.begin(), out.end(), 0u);
  return out;
}

std::vector<std::size_t> detail::split_capacities(std::size_t n,
                                                  std::size_t num_partitions) {
  std::vector<std::size_t> capacity(num_partitions);
  for (std::size_t a = 0; a < num_partitions; ++a) {
    capacity[a] = n * (a + 1) / num_partitions - n * a / num_partitions;
  }
  return capacity;
}

std::vector<std::uint32_t> greedy_lpt_balance(std::span<const double> lipschitz,
                                              std::size_t num_partitions) {
  if (num_partitions == 0) {
    throw std::invalid_argument("greedy_lpt_balance: zero partitions");
  }
  detail::reject_nan(lipschitz, "greedy_lpt_balance");
  return detail::greedy_lpt_deal(
      lipschitz, detail::value_order(lipschitz, /*descending=*/true),
      num_partitions);
}

std::vector<std::uint32_t> detail::greedy_lpt_deal(
    std::span<const double> lipschitz, std::span<const std::uint32_t> sorted,
    std::size_t num_partitions) {
  const std::size_t n = lipschitz.size();
  // Deal each sample (heaviest first) to the partition with smallest Φ,
  // subject to the partition not being full: the contiguous split gives
  // partition a exactly n·(a+1)/k − n·a/k samples, so capacities must match
  // that pattern or the block split would not recover this assignment.
  const std::vector<std::size_t> capacity =
      detail::split_capacities(n, num_partitions);

  using Entry = std::pair<double, std::size_t>;  // (Φ, partition)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t a = 0; a < num_partitions; ++a) heap.emplace(0.0, a);

  std::vector<std::vector<std::uint32_t>> buckets(num_partitions);
  for (std::uint32_t i : sorted) {
    // Pop until we find a partition with remaining capacity.
    std::vector<Entry> skipped;
    Entry top = heap.top();
    heap.pop();
    while (buckets[top.second].size() >= capacity[top.second]) {
      skipped.push_back(top);
      top = heap.top();
      heap.pop();
    }
    buckets[top.second].push_back(i);
    heap.emplace(top.first + lipschitz[i], top.second);
    for (const Entry& e : skipped) heap.push(e);
  }

  // Lay buckets out contiguously so a block split recovers the assignment.
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (const auto& bucket : buckets) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

namespace {

/// One bucket of a differencing tuple: its importance sum and its samples.
/// Dummy (padding) slots hold no items and contribute zero weight, so every
/// bucket always carries exactly one slot per consumed chunk.
struct KkBucket {
  double phi = 0;
  std::size_t dummies = 0;  // padding slots absorbed by this bucket
  std::vector<std::uint32_t> items;
};

/// A k-tuple in the differencing heap.
struct KkTuple {
  std::vector<KkBucket> buckets;  // kept sorted by phi descending

  [[nodiscard]] double spread() const {
    return buckets.front().phi - buckets.back().phi;
  }
};

void sort_buckets_desc(KkTuple& t) {
  std::stable_sort(t.buckets.begin(), t.buckets.end(),
                   [](const KkBucket& a, const KkBucket& b) {
                     return a.phi > b.phi;
                   });
}

}  // namespace

std::vector<std::uint32_t> karmarkar_karp_balance(
    std::span<const double> lipschitz, std::size_t num_partitions) {
  const std::size_t n = lipschitz.size();
  const std::size_t k = num_partitions;
  if (k == 0) {
    throw std::invalid_argument("karmarkar_karp_balance: zero partitions");
  }
  detail::reject_nan(lipschitz, "karmarkar_karp_balance");
  if (k == 1 || n == 0) return identity_order(n);
  return detail::karmarkar_karp_deal(
      lipschitz, detail::value_order(lipschitz, /*descending=*/true), k);
}

std::vector<std::uint32_t> detail::karmarkar_karp_deal(
    std::span<const double> lipschitz, std::span<const std::uint32_t> sorted,
    std::size_t num_partitions) {
  const std::size_t n = lipschitz.size();
  const std::size_t k = num_partitions;
  // Seed tuples: each chunk of k consecutive items (heaviest first) becomes
  // one tuple with one item per bucket; the final short chunk is padded with
  // zero-weight dummy slots so all buckets stay cardinality-equal (the
  // balanced-LDM construction of Michiels et al.).
  const std::size_t chunks = (n + k - 1) / k;
  std::vector<KkTuple> arena;
  arena.reserve(2 * chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    KkTuple t;
    t.buckets.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t pos = c * k + j;
      if (pos < n) {
        t.buckets[j].phi = lipschitz[sorted[pos]];
        t.buckets[j].items.push_back(sorted[pos]);
      } else {
        t.buckets[j].dummies = 1;
      }
    }
    sort_buckets_desc(t);
    arena.push_back(std::move(t));
  }

  // Differencing loop: merge the two largest-spread tuples, pairing the
  // first tuple's buckets descending against the second's ascending — the
  // heaviest bucket absorbs the lightest, cancelling spread.
  using HeapEntry = std::pair<double, std::size_t>;  // (spread, arena index)
  std::priority_queue<HeapEntry> heap;
  std::vector<bool> alive(arena.size(), true);
  for (std::size_t idx = 0; idx < arena.size(); ++idx) {
    heap.emplace(arena[idx].spread(), idx);
  }
  auto pop_alive = [&]() {
    while (true) {
      const auto [spread, idx] = heap.top();
      heap.pop();
      if (alive[idx]) {
        alive[idx] = false;
        return idx;
      }
    }
  };
  for (std::size_t round = 1; round < chunks; ++round) {
    const std::size_t a = pop_alive();
    const std::size_t b = pop_alive();
    KkTuple merged;
    merged.buckets.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      KkBucket& heavy = arena[a].buckets[j];
      KkBucket& light = arena[b].buckets[k - 1 - j];
      merged.buckets[j].phi = heavy.phi + light.phi;
      merged.buckets[j].dummies = heavy.dummies + light.dummies;
      merged.buckets[j].items = std::move(heavy.items);
      merged.buckets[j].items.insert(merged.buckets[j].items.end(),
                                     light.items.begin(), light.items.end());
    }
    sort_buckets_desc(merged);
    alive.push_back(true);
    heap.emplace(merged.spread(), arena.size());
    arena.push_back(std::move(merged));
  }
  const std::size_t root = pop_alive();
  KkTuple& result = arena[root];

  // Bucket sizes are chunks − dummies ∈ {⌈n/k⌉, ⌊n/k⌋}; the contiguous split
  // produces the same multiset of shard sizes, so matching size-descending
  // buckets to capacity-descending shard slots recovers the assignment.
  const std::vector<std::size_t> capacity = detail::split_capacities(n, k);
  std::vector<std::size_t> slot_order(k);
  std::iota(slot_order.begin(), slot_order.end(), 0u);
  std::stable_sort(slot_order.begin(), slot_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return capacity[a] > capacity[b];
                   });
  std::stable_sort(result.buckets.begin(), result.buckets.end(),
                   [](const KkBucket& a, const KkBucket& b) {
                     return a.items.size() > b.items.size();
                   });

  std::vector<std::vector<std::uint32_t>> assigned(k);
  for (std::size_t r = 0; r < k; ++r) {
    assigned[slot_order[r]] = std::move(result.buckets[r].items);
  }
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (const auto& bucket : assigned) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

}  // namespace isasgd::partition
