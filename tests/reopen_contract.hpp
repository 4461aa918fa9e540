// The DataSource::reopen() contract, checked the same way for every
// file-backed source: the handle serves the original's shards bit for bit,
// leaves the original's cache counters alone, issues no prefetch, and
// outlives the original.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "data/data_source.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::test {

/// Whether two arrays hold the same bytes.
template <class A>
bool same_bits(const A& a, const A& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// Whether two matrices hold the same bytes in all four CSR arrays.
inline bool same_bits(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
  return a.dim() == b.dim() && same_bits(a.row_ptr(), b.row_ptr()) &&
         same_bits(a.col_idx(), b.col_idx()) &&
         same_bits(a.values(), b.values()) && same_bits(a.labels(), b.labels());
}

/// Checks the contract on `original`, which must have a prefetch pool (so
/// that a handle that shared it would prefetch), and destroys it.
inline void expect_reopen_contract(std::unique_ptr<data::DataSource> original,
                                   util::ThreadPool& pool) {
  ASSERT_GT(original->shard_count(), 1u);
  std::unique_ptr<data::DataSource> handle = original->reopen();
  ASSERT_NE(handle, nullptr);
  ASSERT_EQ(handle->shard_count(), original->shard_count());
  const data::CacheStats before = *original->cache_stats();

  handle->prefetch(1);
  pool.drain_background();
  EXPECT_EQ(handle->cache_stats()->prefetch_issued, 0u);

  std::vector<data::ShardPtr> through_handle;
  for (std::size_t s = 0; s < handle->shard_count(); ++s) {
    through_handle.push_back(handle->shard(s));
  }
  const data::CacheStats after = *original->cache_stats();
  EXPECT_EQ(after.loads, before.loads);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.prefetch_issued, before.prefetch_issued);

  for (std::size_t s = 0; s < original->shard_count(); ++s) {
    EXPECT_EQ(through_handle[s]->row_begin, original->shard_begin(s));
    EXPECT_TRUE(same_bits(*through_handle[s]->matrix,
                          *original->shard(s)->matrix))
        << "shard " << s;
  }
  const data::ShardPtr first = original->shard(0);

  // The handle outlives the original.
  original.reset();
  through_handle.clear();
  EXPECT_TRUE(same_bits(*handle->shard(0)->matrix, *first->matrix));
}

}  // namespace isasgd::test
