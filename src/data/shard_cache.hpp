// Shared shard-cache machinery for the out-of-core DataSource backends.
//
// StreamingSource (PR 3) and PackedSource (this layer) both serve shards
// through the same discipline: an LRU cache bounded by a byte budget,
// single-flight loads (a demand fetch and a background prefetch of the same
// shard never read the file twice), and a background-lane prefetch that
// overlaps the next shard's I/O with the current shard's compute. ShardCache
// is that discipline extracted once — a backend supplies only its loader
// (read shard s from the file) and the cache owns residency, eviction,
// waiting, and every counter.
//
// The cache also owns the *prefetch autotuner*: shard-major epoch drivers
// prefetch `prefetch_depth()` shards ahead and call `end_epoch()` at each
// epoch fence, where the tuner inspects the epoch's counter deltas and
// adapts the depth — deeper when demand fetches still miss or race an
// in-flight prefetch (I/O not hidden), shallower when prefetched shards get
// evicted unused (lookahead overrunning the budget). Depth is wall-clock
// tuning only; the arithmetic contract (streaming ≡ in-memory bit parity)
// is untouched by any depth choice.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "data/data_source.hpp"
#include "util/backoff.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::data {

/// Adapts the prefetch lookahead depth from per-epoch CacheStats deltas.
/// Pure policy, no locking — ShardCache drives it under its own mutex, and
/// tests drive it directly with synthetic deltas. Deterministic: the depth
/// sequence is a function of the observed counter sequence only.
class PrefetchAutotuner {
 public:
  static constexpr std::size_t kInitialDepth = 1;
  static constexpr std::size_t kMaxDepth = 8;
  /// Fraction of an epoch's prefetches that may race a demand fetch before
  /// the tuner deepens the lookahead.
  static constexpr double kRaceTolerance = 0.10;
  /// Fraction of an epoch's prefetches that may be evicted unused before
  /// the tuner backs off.
  static constexpr double kWasteTolerance = 0.25;
  /// Race rate above which an epoch counts as *severely* racing, when also
  /// its mean race wait is at least its mean load time: the consumer
  /// blocked on nearly every prefetch for as long as a load of its own
  /// would have taken, so lookahead hid nothing. Races whose waits are
  /// shorter than a load still hide part of it; they deepen.
  static constexpr double kSevereRaceRate = 0.5;
  /// After this many consecutive severely-racing epochs (deepening had its
  /// chance and changed nothing — e.g. no spare core to decode on),
  /// prefetch is futile: depth drops to 0 and stays there, so demand loads
  /// run inline on the consumer and stop paying wake-up latency.
  static constexpr std::size_t kFutilityEpochs = 2;

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// One tuning step from the counter deltas of the window just ended
  /// (typically one epoch). `capacity_shards` is the current estimate of
  /// how many shards the budget holds resident (caps useful lookahead at
  /// capacity − 1 — the current shard needs a slot too). Returns the new
  /// depth. Windows with no demand traffic leave the depth unchanged.
  /// Depth 0 means prefetch was declared futile (see kFutilityEpochs) and
  /// is permanently off for this tuner.
  std::size_t update(const CacheStats& delta, std::size_t capacity_shards);

  /// Tuning steps that changed the depth (observability for --stats).
  [[nodiscard]] std::uint64_t adjustments() const noexcept {
    return adjustments_;
  }

 private:
  std::size_t depth_ = kInitialDepth;
  std::uint64_t adjustments_ = 0;
  std::size_t severe_epochs_ = 0;
  bool disabled_ = false;
};

/// LRU shard cache with single-flight loads and background prefetch.
/// Thread-safe. `Loader` reads one shard from the backing store and may
/// throw; it is always invoked without the cache lock held.
class ShardCache {
 public:
  using Loader = std::function<ShardPtr(std::size_t)>;

  struct Options {
    std::size_t memory_budget_bytes = std::size_t{64} << 20;
    /// Allow prefetch() to schedule background loads (needs a pool).
    bool prefetch = true;
    /// Times a *failed* background load is retried in place before the
    /// prefetch claim is dropped (0 = legacy behaviour: first failure drops
    /// the claim and the blocking get() reloads). Retries ride the same
    /// background-lane task, sleeping `retry_backoff` between attempts with
    /// the schedule seeded per shard — transient I/O errors (NFS hiccup,
    /// EINTR-ish loader failures) heal without ever blocking a consumer,
    /// while a persistent error still falls through to get()'s synchronous
    /// reload, which surfaces it unchanged.
    std::size_t prefetch_retries = 0;
    util::Backoff::Options retry_backoff;
  };

  /// `loader` and `pool` must outlive the cache; null pool disables
  /// prefetch (everything else works).
  ShardCache(std::size_t shard_count, Options options, Loader loader,
             util::ThreadPool* pool);

  /// Waits for every in-flight background load. Call from the owning
  /// source's destructor BEFORE the members the loader touches disappear.
  ~ShardCache();

  /// Fetches shard s, blocking on I/O when not resident. Single-flight:
  /// concurrent callers (and a racing prefetch) share one read.
  [[nodiscard]] ShardPtr get(std::size_t s);

  /// Hint: schedule a background load of shard s on the pool's background
  /// lane. No-op when resident, loading, out of range, or prefetch is off.
  /// Failures are dropped — the blocking get() reloads and surfaces them.
  void prefetch(std::size_t s);

  /// Epoch fence: feed the epoch's counter deltas to the autotuner.
  void end_epoch();

  /// Current adaptive lookahead depth for shard-major drivers.
  [[nodiscard]] std::size_t prefetch_depth() const;

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::uint64_t autotune_adjustments() const;

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

 private:
  struct Entry {
    ShardPtr shard;  ///< null while loading
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;
    bool loading = false;
    bool prefetched = false;  ///< claimed/installed by a background load
    bool raced = false;       ///< a get() already blocked on this prefetch
  };

  void install_locked(std::size_t s, ShardPtr shard, bool prefetched,
                      std::uint64_t load_ns);
  void evict_to_budget_locked(std::size_t keep);
  [[nodiscard]] std::size_t capacity_shards_locked() const;

  const std::size_t shard_count_;
  const Options options_;
  const Loader loader_;
  util::ThreadPool* pool_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::unordered_map<std::size_t, Entry> cache_;
  std::uint64_t tick_ = 0;
  std::size_t inflight_ = 0;  ///< loads in progress (sync + async)
  CacheStats stats_;
  CacheStats epoch_mark_;  ///< stats_ snapshot at the last end_epoch()
  PrefetchAutotuner tuner_;
  /// Running mean of observed shard bytes (capacity estimate feed).
  double mean_shard_bytes_ = 0;
  std::uint64_t observed_shards_ = 0;
};

}  // namespace isasgd::data
