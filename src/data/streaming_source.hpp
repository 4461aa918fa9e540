// Out-of-core DataSource: reads a LibSVM text or ISASGD binary dataset file
// shard-by-shard under a configurable memory budget.
//
// Construction makes one indexing pass (LibSVM: a validating scan recording
// shard byte offsets, shape and the label alphabet; binary: the header plus
// the row_ptr array, which *is* the index) and loads no feature data. After
// that, shard(s) seeks and parses just that shard, an LRU cache keeps
// recently used shards resident while their total estimated footprint stays
// under `memory_budget_bytes`, and prefetch(s) loads shards ahead of the
// training loop on the ThreadPool's background lane — so a shard-major
// epoch overlaps the next shard's I/O with the current shard's compute.
//
// The arithmetic contract: training from a StreamingSource and from an
// InMemorySource chunked with the same shard_rows visits identical rows
// with identical values in an identical order (see ShardedSequence), so the
// streaming machinery — cache hits, evictions, prefetch races — can never
// change a result, only wall-clock. tests/determinism_test.cpp holds this
// line.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "data/data_source.hpp"
#include "data/shard_cache.hpp"
#include "io/libsvm.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::data {

struct StreamingOptions {
  /// Rows per shard. Smaller shards = finer cache granularity and lower
  /// peak memory; larger shards = fewer seeks and better parse throughput.
  std::size_t shard_rows = 4096;
  /// Soft cap on the summed estimated footprint of cached shards. The cache
  /// always retains at least the most recently installed shard, so a budget
  /// smaller than one shard degrades to "no reuse", never to a failure.
  std::size_t memory_budget_bytes = std::size_t{64} << 20;
  /// Allow prefetch() to schedule background loads (needs a ThreadPool).
  bool prefetch = true;
  /// Floor on the reported dim (LibSVM files do not record it; binary files
  /// ignore the hint).
  std::size_t dim_hint = 0;
  /// Match io::LibsvmReadOptions: map a two-valued label alphabet onto ±1.
  /// Decided from the *whole file's* alphabet collected by the index pass —
  /// a shard that happens to contain a single class still maps correctly.
  bool normalize_binary_labels = true;
};

/// File-backed DataSource. Thread-safe; see class comment.
class StreamingSource final : public DataSource {
 public:
  /// Opens and indexes `path` (format auto-detected: ISASGD binary magic,
  /// else LibSVM text). `pool` serves background prefetch; null disables
  /// prefetch but everything else works. Throws std::runtime_error on open
  /// or parse failure.
  explicit StreamingSource(std::string path, StreamingOptions options = {},
                           util::ThreadPool* pool = nullptr);
  ~StreamingSource() override;

  [[nodiscard]] std::size_t rows() const override { return rows_; }
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] std::size_t nnz() const override { return nnz_; }
  [[nodiscard]] std::size_t shard_count() const override {
    return shard_rows_.size();
  }
  [[nodiscard]] std::size_t shard_rows(std::size_t s) const override {
    return shard_rows_.at(s);
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override {
    return shard_begin_.at(s);
  }
  [[nodiscard]] ShardPtr shard(std::size_t s) const override;
  void prefetch(std::size_t s) const override;
  [[nodiscard]] std::size_t prefetch_depth() const override;
  void end_epoch() const override;
  /// True once materialize() has cached the whole matrix.
  [[nodiscard]] bool resident() const override;
  [[nodiscard]] const sparse::CsrMatrix& materialize() const override;
  /// Indexes the same file again, with the same options and no pool.
  [[nodiscard]] std::unique_ptr<DataSource> reopen() const override;
  /// The configured cache budget — what this source actually holds resident
  /// while training, as opposed to the full-file estimate of the default.
  [[nodiscard]] std::size_t resident_bytes() const override {
    return options_.memory_budget_bytes;
  }

  /// Cache behaviour counters (monotonic since construction). The struct is
  /// the shared data::CacheStats; kept as a nested alias for existing users.
  using CacheStats = data::CacheStats;
  [[nodiscard]] std::optional<CacheStats> cache_stats() const override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  enum class Format { kLibsvm, kBinary };

  /// Reads shard s from the file (no locks held).
  [[nodiscard]] ShardPtr load_shard(std::size_t s) const;
  [[nodiscard]] sparse::CsrMatrix load_shard_libsvm(std::size_t s) const;
  [[nodiscard]] sparse::CsrMatrix load_shard_binary(std::size_t s) const;
  /// Applies the global ±1 label mapping decided at index time.
  void apply_label_map(sparse::CsrMatrix& shard) const;

  std::string path_;
  StreamingOptions options_;
  util::ThreadPool* pool_;
  Format format_ = Format::kLibsvm;

  // Immutable after construction (the index).
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::size_t nnz_ = 0;
  std::vector<std::size_t> shard_rows_;
  std::vector<std::size_t> shard_begin_;
  io::LibsvmIndex libsvm_index_;            ///< kLibsvm only
  std::vector<std::uint64_t> binary_row_ptr_;  ///< kBinary only: the file's row_ptr
  bool map_labels_ = false;
  /// The smaller of the file's two label values; it maps to -1, everything
  /// else to +1 (the index pass proved the alphabet has exactly two).
  double label_lo_ = 0;

  // materialize() single-flight state.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool materializing_ = false;
  mutable std::shared_ptr<const sparse::CsrMatrix> materialized_;

  /// Declared last: its destructor drains in-flight background loads, and
  /// those loads read the index members above.
  mutable std::unique_ptr<ShardCache> cache_;
};

}  // namespace isasgd::data
