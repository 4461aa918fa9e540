// data::DataSource backends: in-memory geometry, streaming index/cache
// behaviour (LRU budget, prefetch, label normalisation), and the
// shard-content equivalence between every backend and the full matrix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/execution.hpp"
#include "data/data_source.hpp"
#include "data/streaming_source.hpp"
#include "data/synthetic.hpp"
#include "io/binary.hpp"
#include "io/libsvm.hpp"
#include "load_in_child.hpp"
#include "reopen_contract.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::data {
namespace {

sparse::CsrMatrix small_dataset(std::size_t rows = 257) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.dim = 64;
  spec.mean_row_nnz = 6;
  spec.seed = 99;
  return generate(spec);
}

/// Unique temp path per test (no collisions under ctest -j).
std::string temp_path(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / ("isasgd_dstest_" + tag + "_" +
                 std::to_string(::getpid()) + ".dat"))
      .string();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

void expect_rows_equal(const sparse::CsrMatrix& a, std::size_t ai,
                       const sparse::CsrMatrix& b, std::size_t bi) {
  ASSERT_EQ(a.row(ai).nnz(), b.row(bi).nnz());
  EXPECT_EQ(a.label(ai), b.label(bi));
  for (std::size_t k = 0; k < a.row(ai).nnz(); ++k) {
    EXPECT_EQ(a.row(ai).index(k), b.row(bi).index(k));
    EXPECT_EQ(a.row(ai).value(k), b.row(bi).value(k));
  }
}

/// Every backend must present identical rows at identical global ids.
void expect_source_matches_matrix(const DataSource& source,
                                  const sparse::CsrMatrix& full) {
  ASSERT_EQ(source.rows(), full.rows());
  ASSERT_EQ(source.dim(), full.dim());
  ASSERT_EQ(source.nnz(), full.nnz());
  std::size_t covered = 0;
  for (std::size_t s = 0; s < source.shard_count(); ++s) {
    const ShardPtr shard = source.shard(s);
    ASSERT_EQ(shard->index, s);
    ASSERT_EQ(shard->row_begin, source.shard_begin(s));
    ASSERT_EQ(shard->matrix->rows(), source.shard_rows(s));
    ASSERT_EQ(shard->matrix->dim(), full.dim());
    for (std::size_t r = 0; r < shard->matrix->rows(); ++r) {
      expect_rows_equal(*shard->matrix, r, full, shard->row_begin + r);
    }
    covered += shard->matrix->rows();
  }
  EXPECT_EQ(covered, full.rows());
}

TEST(InMemorySource, SingleShardAliasesTheMatrix) {
  const auto full = small_dataset();
  const InMemorySource source(full);
  EXPECT_TRUE(source.resident());
  EXPECT_EQ(source.shard_count(), 1u);
  // Zero-copy: the shard and materialize() both point at the original.
  EXPECT_EQ(source.shard(0)->matrix.get(), &full);
  EXPECT_EQ(&source.materialize(), &full);
  expect_source_matches_matrix(source, full);
}

TEST(InMemorySource, ChunkedGeometryCoversEveryRowOnce) {
  const auto full = small_dataset(257);
  const InMemorySource source(full, /*shard_rows=*/64);
  EXPECT_EQ(source.shard_count(), 5u);  // 64*4 + 1
  EXPECT_EQ(source.shard_rows(4), 1u);
  EXPECT_EQ(source.shard_begin(4), 256u);
  expect_source_matches_matrix(source, full);
  EXPECT_THROW((void)source.shard(5), std::out_of_range);
}

TEST(SliceRows, MatchesSelectRows) {
  const auto full = small_dataset(50);
  const auto slice = slice_rows(full, 10, 7);
  ASSERT_EQ(slice.rows(), 7u);
  EXPECT_EQ(slice.dim(), full.dim());
  for (std::size_t r = 0; r < 7; ++r) expect_rows_equal(slice, r, full, 10 + r);
  EXPECT_THROW((void)slice_rows(full, 48, 7), std::out_of_range);
}

class StreamingSourceTest : public ::testing::TestWithParam<bool> {};

TEST_P(StreamingSourceTest, MatchesFullMatrixAndMaterialize) {
  const bool binary = GetParam();
  const auto full = small_dataset(300);
  TempFile file(temp_path(binary ? "bin_match" : "svm_match"));
  if (binary) {
    io::write_dataset_binary_file(file.path, full);
  } else {
    io::write_libsvm_file(file.path, full);
  }
  StreamingOptions opt;
  opt.shard_rows = 77;
  const StreamingSource source(file.path, opt);
  EXPECT_FALSE(source.resident());
  EXPECT_EQ(source.shard_count(), 4u);  // 77*3 + 69
  expect_source_matches_matrix(source, full);

  const sparse::CsrMatrix& materialized = source.materialize();
  ASSERT_EQ(materialized.rows(), full.rows());
  for (std::size_t i = 0; i < full.rows(); ++i) {
    expect_rows_equal(materialized, i, full, i);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, StreamingSourceTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "binary" : "libsvm";
                         });

TEST(StreamingSource, LruCacheHonoursBudgetAndCountsEvictions) {
  const auto full = small_dataset(400);
  TempFile file(temp_path("budget"));
  io::write_dataset_binary_file(file.path, full);

  StreamingOptions opt;
  opt.shard_rows = 50;  // 8 shards
  opt.memory_budget_bytes = 1;  // degenerate: at most one resident shard
  const StreamingSource source(file.path, opt);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < source.shard_count(); ++s) {
      (void)source.shard(s);
    }
  }
  const auto stats = *source.cache_stats();
  EXPECT_EQ(stats.misses, 16u);  // no reuse possible under a 1-byte budget
  EXPECT_EQ(stats.loads, 16u);
  EXPECT_GE(stats.evictions, 15u);
  EXPECT_LE(stats.resident_shards, 1u);

  // A budget that fits everything: second pass is all hits.
  StreamingOptions big = opt;
  big.memory_budget_bytes = std::size_t{1} << 30;
  const StreamingSource cached(file.path, big);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < cached.shard_count(); ++s) {
      (void)cached.shard(s);
    }
  }
  const auto cached_stats = *cached.cache_stats();
  EXPECT_EQ(cached_stats.misses, 8u);
  EXPECT_EQ(cached_stats.hits, 8u);
  EXPECT_EQ(cached_stats.evictions, 0u);
  EXPECT_EQ(cached_stats.resident_shards, 8u);
}

TEST(StreamingSource, PrefetchLoadsInBackgroundAndIsCounted) {
  const auto full = small_dataset(300);
  TempFile file(temp_path("prefetch"));
  io::write_libsvm_file(file.path, full);

  util::ThreadPool pool;
  StreamingOptions opt;
  opt.shard_rows = 60;
  const StreamingSource source(file.path, opt, &pool);
  source.prefetch(2);
  pool.drain_background();
  ASSERT_EQ(source.cache_stats()->prefetch_issued, 1u);
  ASSERT_EQ(source.cache_stats()->resident_shards, 1u);
  (void)source.shard(2);
  const auto stats = *source.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  // Prefetching a resident or out-of-range shard is a silent no-op.
  source.prefetch(2);
  source.prefetch(999);
  EXPECT_EQ(source.cache_stats()->prefetch_issued, 1u);
}

TEST(StreamingSource, NormalisesBinaryLabelsFromTheWholeFile) {
  // Labels {0,1} arranged so the first shard is all-0 and the second all-1:
  // per-shard normalisation would map both classes onto the same value; the
  // global index must map 0→-1, 1→+1.
  TempFile file(temp_path("labels"));
  {
    std::ofstream out(file.path);
    for (int i = 0; i < 4; ++i) out << "0 1:1 2:" << i << "\n";
    for (int i = 0; i < 4; ++i) out << "1 1:2 2:" << i << "\n";
  }
  StreamingOptions opt;
  opt.shard_rows = 4;
  const StreamingSource source(file.path, opt);
  ASSERT_EQ(source.shard_count(), 2u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(source.shard(0)->matrix->label(r), -1.0);
    EXPECT_EQ(source.shard(1)->matrix->label(r), 1.0);
  }
  // materialize() agrees with the shard view.
  EXPECT_EQ(source.materialize().label(0), -1.0);
  EXPECT_EQ(source.materialize().label(7), 1.0);
}

TEST(StreamingSource, RejectsBadInputs) {
  EXPECT_THROW(StreamingSource("/nonexistent/path.libsvm", {}),
               std::runtime_error);
  const auto full = small_dataset(10);
  TempFile file(temp_path("badopt"));
  io::write_libsvm_file(file.path, full);
  StreamingOptions opt;
  opt.shard_rows = 0;
  EXPECT_THROW(StreamingSource(file.path, opt), std::invalid_argument);
}

TEST(StreamingSource, LyingBinaryHeaderFailsBeforeSizingTheIndex) {
  // 32 bytes announcing 2^25 rows (a 256 MiB row_ptr index): the open must
  // fail typed having grown peak RSS and VmPeak by 64 MiB at most.
  TempFile file(temp_path("lying_header"));
  test::write_header_only(file.path, "ISASGDD1",
                          {64, std::uint64_t{1} << 25, 0});
  const test::LoadInChild load =
      test::load_in_child([&] { const StreamingSource source(file.path); });
  EXPECT_TRUE(load.typed_error);
  EXPECT_LE(load.rss_growth_mib, 64.0);
  EXPECT_LE(load.vm_peak_growth_mib, 64.0);
}

TEST(Reopen, InMemorySourcesHaveNothingToReopen) {
  const auto full = small_dataset();
  EXPECT_EQ(InMemorySource(full).reopen(), nullptr);
  EXPECT_EQ(InMemorySource(full, /*shard_rows=*/50).reopen(), nullptr);
}

TEST(Reopen, StreamingSourceOverLibsvmKeepsTheContract) {
  const auto full = small_dataset();
  TempFile file(temp_path("reopen_libsvm"));
  io::write_libsvm_file(file.path, full);
  util::ThreadPool pool;
  StreamingOptions opt;
  opt.shard_rows = 50;
  opt.memory_budget_bytes = 1;  // one shard resident
  test::expect_reopen_contract(
      std::make_unique<StreamingSource>(file.path, opt, &pool), pool);
}

TEST(Reopen, StreamingSourceOverBinaryKeepsTheContract) {
  const auto full = small_dataset();
  TempFile file(temp_path("reopen_binary"));
  io::write_dataset_binary_file(file.path, full);
  util::ThreadPool pool;
  StreamingOptions opt;
  opt.shard_rows = 50;
  opt.memory_budget_bytes = 1;
  test::expect_reopen_contract(
      std::make_unique<StreamingSource>(file.path, opt, &pool), pool);
}

TEST(ExecutionContext, OpenStreamingBindsThePool) {
  const auto full = small_dataset(120);
  TempFile file(temp_path("ctx"));
  io::write_dataset_binary_file(file.path, full);
  auto ctx = std::make_shared<core::ExecutionContext>(1);
  StreamingOptions opt;
  opt.shard_rows = 40;
  const auto source = ctx->open_streaming(file.path, opt);
  source->prefetch(1);
  ctx->pool().drain_background();
  EXPECT_EQ(source->cache_stats()->prefetch_issued, 1u);
  EXPECT_EQ(source->cache_stats()->resident_shards, 1u);
  expect_source_matches_matrix(*source, full);
}

}  // namespace
}  // namespace isasgd::data
