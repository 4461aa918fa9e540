// ShardCache prefetch retry: a transient loader failure heals on the
// background lane without ever blocking a consumer; a persistent one still
// falls through to get()'s synchronous reload, which surfaces it unchanged.
// The retry budget is Options::prefetch_retries (0 = the legacy drop-on-
// first-failure behaviour) with util::Backoff pacing the attempts. Plus the
// load and race-wait times the cache adds up for the prefetch autotuner.
#include "data/shard_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace isasgd::data {
namespace {

ShardPtr make_shard(std::size_t s) {
  auto shard = std::make_shared<Shard>();
  shard->index = s;
  shard->row_begin = s;
  shard->matrix = std::make_shared<sparse::CsrMatrix>(
      /*dim=*/2, sparse::Array<std::size_t>{0, 1},
      sparse::Array<sparse::index_t>{0}, sparse::Array<sparse::value_t>{1.0},
      sparse::Array<sparse::value_t>{1.0});
  return shard;
}

/// Loader whose first `failures` calls per shard throw, then succeed.
struct FlakyLoader {
  explicit FlakyLoader(std::size_t failures) : failures_left(failures) {}
  std::atomic<std::size_t> failures_left;
  std::atomic<std::size_t> calls{0};

  ShardPtr operator()(std::size_t s) {
    ++calls;
    std::size_t left = failures_left.load();
    while (left > 0 && !failures_left.compare_exchange_weak(left, left - 1)) {
    }
    if (left > 0) throw std::runtime_error("transient shard read failure");
    return make_shard(s);
  }
};

ShardCache::Options fast_retry_options(std::size_t retries) {
  ShardCache::Options opt;
  opt.prefetch_retries = retries;
  opt.retry_backoff.initial_ms = 0.1;
  opt.retry_backoff.max_ms = 1.0;
  opt.retry_backoff.seed = 5;
  return opt;
}

TEST(ShardCachePrefetchRetry, TransientFailureHealsOnTheBackgroundLane) {
  util::ThreadPool pool;
  auto loader = std::make_shared<FlakyLoader>(2);
  ShardCache cache(
      4, fast_retry_options(/*retries=*/3),
      [loader](std::size_t s) { return (*loader)(s); }, &pool);
  cache.prefetch(1);
  pool.drain_background();
  const CacheStats after_prefetch = cache.stats();
  EXPECT_EQ(after_prefetch.prefetch_issued, 1u);
  EXPECT_EQ(after_prefetch.prefetch_retries, 2u);
  EXPECT_EQ(after_prefetch.resident_shards, 1u);
  // The consumer never notices: a plain hit on the healed prefetch.
  const ShardPtr shard = cache.get(1);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->index, 1u);
  const CacheStats after_get = cache.stats();
  EXPECT_EQ(after_get.misses, 0u);
  EXPECT_EQ(after_get.prefetch_hits, 1u);
  EXPECT_EQ(loader->calls.load(), 3u);
}

TEST(ShardCachePrefetchRetry, ZeroRetriesKeepsTheLegacyDrop) {
  util::ThreadPool pool;
  auto loader = std::make_shared<FlakyLoader>(1);
  ShardCache cache(
      4, fast_retry_options(/*retries=*/0),
      [loader](std::size_t s) { return (*loader)(s); }, &pool);
  cache.prefetch(1);
  pool.drain_background();
  const CacheStats after_prefetch = cache.stats();
  EXPECT_EQ(after_prefetch.prefetch_retries, 0u);
  EXPECT_EQ(after_prefetch.resident_shards, 0u);
  // The dropped claim leaves the demand path to reload (and succeed).
  const ShardPtr shard = cache.get(1);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(loader->calls.load(), 2u);
}

TEST(ShardCachePrefetchRetry, PersistentFailureSurfacesThroughGet) {
  util::ThreadPool pool;
  // Fails far past the retry budget: the prefetch burns 1 + retries calls,
  // drops its claim, and get()'s synchronous reload rethrows.
  auto loader = std::make_shared<FlakyLoader>(100);
  ShardCache cache(
      4, fast_retry_options(/*retries=*/2),
      [loader](std::size_t s) { return (*loader)(s); }, &pool);
  cache.prefetch(1);
  pool.drain_background();
  EXPECT_EQ(cache.stats().prefetch_retries, 2u);
  EXPECT_EQ(loader->calls.load(), 3u);
  EXPECT_THROW((void)cache.get(1), std::runtime_error);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ShardCachePrefetchRetry, EpochDeltaCoversRetriesWithoutPerturbingDepth) {
  util::ThreadPool pool;
  auto loader = std::make_shared<FlakyLoader>(1);
  ShardCache cache(
      4, fast_retry_options(/*retries=*/1),
      [loader](std::size_t s) { return (*loader)(s); }, &pool);
  const std::size_t depth_before = cache.prefetch_depth();
  cache.prefetch(1);
  pool.drain_background();
  (void)cache.get(1);
  cache.end_epoch();
  // Retries feed observability only — a healed prefetch must not read as
  // cache trouble to the autotuner (no misses, no races: depth holds).
  EXPECT_EQ(cache.prefetch_depth(), depth_before);
  EXPECT_EQ(cache.stats().prefetch_retries, 1u);
}

TEST(ShardCacheTiming, LoadsAndRaceWaitsAreTimed) {
  util::ThreadPool pool;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ShardCache cache(
      4, ShardCache::Options{},
      [&](std::size_t s) {
        entered = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        return make_shard(s);
      },
      &pool);
  // A demand get() arrives while the prefetch of its shard is still
  // loading: a race, whose wait lasts until the load ends.
  cache.prefetch(1);
  while (!entered) std::this_thread::yield();
  std::thread consumer([&] { (void)cache.get(1); });
  while (cache.stats().prefetch_races == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  release = true;
  consumer.join();
  pool.drain_background();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.prefetch_races, 1u);
  EXPECT_GE(stats.load_ns, 2'000'000u);
  EXPECT_GE(stats.race_wait_ns, 2'000'000u);
  // A demand miss adds its own load time, and no race wait.
  (void)cache.get(2);
  EXPECT_EQ(cache.stats().loads, 2u);
  EXPECT_GT(cache.stats().load_ns, stats.load_ns);
  EXPECT_EQ(cache.stats().race_wait_ns, stats.race_wait_ns);
}

}  // namespace
}  // namespace isasgd::data
