#include "data/shard_cache.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"

namespace isasgd::data {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

double mean(std::uint64_t total, std::uint64_t count) {
  return static_cast<double>(total) /
         static_cast<double>(std::max<std::uint64_t>(1, count));
}

/// Resident-footprint estimate of one shard, what the budget is charged:
/// the four CSR arrays plus a small fixed overhead for the control blocks.
std::size_t default_shard_bytes(const Shard& shard) {
  const sparse::CsrMatrix& m = *shard.matrix;
  return m.nnz() * (sizeof(sparse::index_t) + sizeof(sparse::value_t)) +
         m.rows() * (sizeof(std::size_t) + sizeof(sparse::value_t)) + 128;
}

}  // namespace

std::size_t PrefetchAutotuner::update(const CacheStats& delta,
                                      std::size_t capacity_shards) {
  if (disabled_) return depth_;  // futility latch: prefetch stays off
  // Useful lookahead is bounded by what the budget can hold resident at
  // once minus the shard being consumed; a capacity-1 cache cannot benefit
  // from any lookahead.
  const std::size_t cap =
      std::min(kMaxDepth,
               capacity_shards > 1 ? capacity_shards - 1 : std::size_t{1});
  const std::size_t before = depth_;
  if (delta.hits + delta.misses == 0) {
    // No demand traffic this window (e.g. a setup-only epoch): nothing to
    // learn, but still respect a shrunken capacity bound.
    depth_ = std::min(depth_, cap);
    if (depth_ != before) ++adjustments_;
    return depth_;
  }
  const double issued =
      static_cast<double>(std::max<std::uint64_t>(1, delta.prefetch_issued));
  const double waste_rate = static_cast<double>(delta.prefetch_wasted) / issued;
  const double race_rate = static_cast<double>(delta.prefetch_races) / issued;
  if (delta.prefetch_issued > 0 && race_rate > kSevereRaceRate &&
      mean(delta.race_wait_ns, delta.prefetch_races) >=
          mean(delta.load_ns, delta.loads)) {
    // The consumer blocked on nearly every prefetch, each time for at least
    // as long as loading the shard itself takes — lookahead is not hiding
    // I/O, it is adding hand-off latency (typical when there is no spare
    // core for the background decode). A run of such epochs proves
    // deepening cannot help; turn prefetch off for good so demand loads
    // decode inline on the consumer. A consumer that got faster than the
    // decode also races, but waits less than a load: it deepens below.
    if (++severe_epochs_ >= kFutilityEpochs) {
      depth_ = 0;
      disabled_ = true;
      ++adjustments_;
      return depth_;
    }
  } else {
    severe_epochs_ = 0;
  }
  if (delta.prefetch_issued > 0 && waste_rate > kWasteTolerance) {
    // Lookahead overruns the budget: prefetched shards die unused.
    depth_ = depth_ > 1 ? depth_ - 1 : 1;
  } else if (delta.misses > 0 || race_rate > kRaceTolerance) {
    // I/O is not hidden — demand fetches still fault (or block on reads
    // already in flight). Look further ahead.
    depth_ = depth_ + 1;
  }
  depth_ = std::clamp<std::size_t>(depth_, 1, cap);
  if (depth_ != before) ++adjustments_;
  return depth_;
}

ShardCache::ShardCache(std::size_t shard_count, Options options, Loader loader,
                       util::ThreadPool* pool)
    : shard_count_(shard_count),
      options_(std::move(options)),
      loader_(std::move(loader)),
      pool_(pool) {}

ShardCache::~ShardCache() {
  // Prefetch tasks capture `this`; wait for every in-flight load before the
  // members they touch disappear.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return inflight_ == 0; });
}

std::size_t ShardCache::capacity_shards_locked() const {
  if (observed_shards_ == 0 || mean_shard_bytes_ <= 0) return 1;
  const double cap = static_cast<double>(options_.memory_budget_bytes) /
                     mean_shard_bytes_;
  // The cache always retains at least the most recent shard, so capacity is
  // never reported below 1 even when one shard exceeds the budget.
  return cap < 1.0 ? 1 : static_cast<std::size_t>(cap);
}

void ShardCache::install_locked(std::size_t s, ShardPtr shard,
                                bool prefetched, std::uint64_t load_ns) {
  const std::size_t bytes = default_shard_bytes(*shard);
  Entry& entry = cache_[s];
  entry.bytes = bytes;
  entry.shard = std::move(shard);
  entry.loading = false;
  entry.prefetched = prefetched;
  entry.last_used = ++tick_;
  ++stats_.loads;
  stats_.load_ns += load_ns;
  stats_.resident_bytes += entry.bytes;
  ++stats_.resident_shards;
  // Feed the capacity estimate the autotuner clamps against.
  ++observed_shards_;
  mean_shard_bytes_ += (static_cast<double>(bytes) - mean_shard_bytes_) /
                       static_cast<double>(observed_shards_);
  evict_to_budget_locked(s);
}

void ShardCache::evict_to_budget_locked(std::size_t keep) {
  while (stats_.resident_bytes > options_.memory_budget_bytes) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->first == keep || it->second.loading || !it->second.shard) {
        continue;
      }
      if (victim == cache_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == cache_.end()) break;  // only `keep`/loading entries remain
    stats_.resident_bytes -= victim->second.bytes;
    --stats_.resident_shards;
    ++stats_.evictions;
    if (victim->second.prefetched) {
      // Evicted before any get() consumed it: the prefetch I/O was wasted.
      ++stats_.prefetch_wasted;
    }
    cache_.erase(victim);
  }
}

ShardPtr ShardCache::get(std::size_t s) {
  if (s >= shard_count_) {
    throw std::out_of_range("ShardCache::get: ordinal " + std::to_string(s) +
                            " of " + std::to_string(shard_count_));
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Set while this call waits on a prefetch it raced; the wait ends when
  // the load installs the shard or drops its claim.
  std::optional<Clock::time_point> race_start;
  const auto end_race_wait = [&] {
    if (race_start) stats_.race_wait_ns += ns_since(*race_start);
    race_start.reset();
  };
  for (;;) {
    auto it = cache_.find(s);
    if (it != cache_.end() && it->second.shard) {
      end_race_wait();
      ++stats_.hits;
      if (it->second.prefetched) {
        // Count the prefetch as useful once; later hits on the same entry
        // are ordinary cache hits, so prefetch_hits ≤ prefetch_issued.
        ++stats_.prefetch_hits;
        it->second.prefetched = false;
      }
      it->second.last_used = ++tick_;
      return it->second.shard;
    }
    if (it != cache_.end() && it->second.loading) {
      if (it->second.prefetched && !it->second.raced) {
        // Demand caught up with its own lookahead: the prefetch was issued
        // too late to hide the read. Once per prefetch, not per waiter.
        it->second.raced = true;
        ++stats_.prefetch_races;
        race_start = Clock::now();
      }
      // A prefetch (or another caller) is already reading it; wait.
      cv_.wait(lock);
      continue;
    }
    end_race_wait();  // the raced prefetch failed and dropped its claim
    ++stats_.misses;
    cache_[s].loading = true;
    ++inflight_;
    lock.unlock();
    ShardPtr loaded;
    std::exception_ptr error;
    const Clock::time_point start = Clock::now();
    try {
      loaded = loader_(s);
    } catch (...) {
      error = std::current_exception();
    }
    const std::uint64_t load_ns = ns_since(start);
    lock.lock();
    --inflight_;
    if (error) {
      cache_.erase(s);
      cv_.notify_all();
      std::rethrow_exception(error);
    }
    install_locked(s, std::move(loaded), /*prefetched=*/false, load_ns);
    cv_.notify_all();
    return cache_[s].shard;
  }
}

void ShardCache::prefetch(std::size_t s) {
  if (s >= shard_count_ || !pool_ || !options_.prefetch) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (tuner_.depth() == 0) return;  // autotuner declared prefetch futile
    if (cache_.count(s)) return;  // resident or already loading
    Entry& entry = cache_[s];
    entry.loading = true;
    entry.prefetched = true;
    ++inflight_;
    ++stats_.prefetch_issued;
    ++stats_.prefetch_inflight;
  }
  pool_->submit([this, s] {
    // Per-shard deterministic retry schedule: same options + same shard ⇒
    // same delays, independent of which pool thread runs the task.
    util::Backoff::Options bopt = options_.retry_backoff;
    bopt.seed ^= static_cast<std::uint64_t>(s) * 0x9e3779b97f4a7c15ull;
    util::Backoff backoff(bopt);
    ShardPtr loaded;
    bool failed = false;
    std::uint64_t load_ns = 0;
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        const Clock::time_point start = Clock::now();
        loaded = loader_(s);
        load_ns = ns_since(start);
        failed = false;
        break;
      } catch (...) {
        // A prefetch is a hint: once the retry budget is spent, drop the
        // claim and let the blocking get() reload and surface the error
        // synchronously.
        failed = true;
      }
      if (attempt >= options_.prefetch_retries) break;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.prefetch_retries;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff.next_ms()));
    }
    const std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    --stats_.prefetch_inflight;
    if (failed) {
      cache_.erase(s);
    } else {
      install_locked(s, std::move(loaded), /*prefetched=*/true, load_ns);
    }
    cv_.notify_all();
  });
}

void ShardCache::end_epoch() {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats delta;
  delta.loads = stats_.loads - epoch_mark_.loads;
  delta.hits = stats_.hits - epoch_mark_.hits;
  delta.misses = stats_.misses - epoch_mark_.misses;
  delta.evictions = stats_.evictions - epoch_mark_.evictions;
  delta.prefetch_issued = stats_.prefetch_issued - epoch_mark_.prefetch_issued;
  delta.prefetch_hits = stats_.prefetch_hits - epoch_mark_.prefetch_hits;
  delta.prefetch_races = stats_.prefetch_races - epoch_mark_.prefetch_races;
  delta.prefetch_wasted = stats_.prefetch_wasted - epoch_mark_.prefetch_wasted;
  delta.prefetch_retries =
      stats_.prefetch_retries - epoch_mark_.prefetch_retries;
  delta.load_ns = stats_.load_ns - epoch_mark_.load_ns;
  delta.race_wait_ns = stats_.race_wait_ns - epoch_mark_.race_wait_ns;
  tuner_.update(delta, capacity_shards_locked());
  epoch_mark_ = stats_;
}

std::size_t ShardCache::prefetch_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tuner_.depth();
}

CacheStats ShardCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t ShardCache::autotune_adjustments() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tuner_.adjustments();
}

}  // namespace isasgd::data
