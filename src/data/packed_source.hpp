// DataSource over an io::shardpack file: mmap reads, pooled decode buffers,
// sidecar-fed setup.
//
// Where StreamingSource re-parses text on every shard fault, PackedSource
// serves shards straight off a read-only mmap of the compiled pack: a fault
// costs one CRC pass over the block (first decode only), a varint scan for
// the column indices, and memcpys of the values and labels — no parsing, no
// validation walk (the format's delta encoding cannot express an invalid
// row, and the CRC vouches for integrity, so decoding uses
// CsrMatrix::from_trusted_parts). Decode buffers are pooled: evicting a
// shard recycles its four arrays into the next decode, so a steady-state
// epoch allocates nothing on the data path.
//
// materialize() — the fallback for solvers that train on one CsrMatrix —
// runs the same decode body as a fault, but every shard decodes straight
// into its slice of the final arrays (offsets from the directory), one task
// per shard on the source's pool. After it, resident() is true and
// metrics::Evaluator scores from the cached matrix instead of faulting
// shards through the cache.
//
// The pack's sidecars (per-row squared norms, per-shard totals) are exposed
// through DataSource::row_stats(), which lets adaptive-IS setup and
// PartitionPlan construction run with zero data passes — and because the
// sidecar values were produced by the same `row.squared_norm()` arithmetic
// the loaded path uses, the resulting models are bit-identical.
//
// Shards ride the same data::ShardCache as StreamingSource (LRU under
// memory_budget_bytes, background prefetch lane, prefetch autotuner).
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
#include "io/shardpack.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::data {

struct PackedOptions {
  /// Soft cap on the summed decoded footprint of cached shards; the cache
  /// always retains the most recently used shard.
  std::size_t memory_budget_bytes = std::size_t{64} << 20;
  /// Allow prefetch() to schedule background decodes (needs a ThreadPool).
  bool prefetch = true;
};

/// File-backed DataSource over a shardpack. Thread-safe; see file comment.
class PackedSource final : public DataSource, private RowStats {
 public:
  /// Maps and validates `path` (must be an ISSP shardpack; throws
  /// io::ShardPackError on any defect). `pool` serves background prefetch;
  /// null disables prefetch but everything else works.
  explicit PackedSource(std::string path, PackedOptions options = {},
                        util::ThreadPool* pool = nullptr);
  ~PackedSource() override;

  [[nodiscard]] std::size_t rows() const override { return reader_.rows(); }
  [[nodiscard]] std::size_t dim() const override { return reader_.dim(); }
  [[nodiscard]] std::size_t nnz() const override { return reader_.nnz(); }
  [[nodiscard]] std::size_t shard_count() const override {
    return reader_.shard_count();
  }
  [[nodiscard]] std::size_t shard_rows(std::size_t s) const override {
    return reader_.shard_rows(s);
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override {
    return reader_.shard_begin(s);
  }
  [[nodiscard]] ShardPtr shard(std::size_t s) const override;
  void prefetch(std::size_t s) const override;
  [[nodiscard]] std::size_t prefetch_depth() const override;
  void end_epoch() const override;
  /// True once materialize() has cached the whole matrix.
  [[nodiscard]] bool resident() const override;
  /// Decodes every shard into one matrix, in parallel on the source's pool
  /// (serially without one), and caches it. Bypasses the cache budget.
  [[nodiscard]] const sparse::CsrMatrix& materialize() const override;
  /// Maps the same path again, under the same budget and with no pool.
  [[nodiscard]] std::unique_ptr<DataSource> reopen() const override;
  [[nodiscard]] std::optional<CacheStats> cache_stats() const override {
    return cache_->stats();
  }
  [[nodiscard]] const RowStats* row_stats() const override { return this; }
  /// The configured cache budget — what this source actually holds resident
  /// while training.
  [[nodiscard]] std::size_t resident_bytes() const override {
    return options_.memory_budget_bytes;
  }

  [[nodiscard]] const std::string& path() const noexcept {
    return reader_.path();
  }
  [[nodiscard]] const io::ShardPackReader& reader() const noexcept {
    return reader_;
  }
  /// Decodes served from recycled buffers (steady-state epochs should be
  /// all reuses after the first pass fills the pool).
  [[nodiscard]] std::uint64_t buffer_pool_reuses() const;
  [[nodiscard]] std::uint64_t autotune_adjustments() const {
    return cache_->autotune_adjustments();
  }

 private:
  struct BufferPool;

  // RowStats: straight out of the mmap'd sidecar.
  [[nodiscard]] double row_squared_norm(std::size_t row) const override {
    return reader_.row_squared_norm(row);
  }

  [[nodiscard]] ShardPtr load_shard(std::size_t s) const;

  PackedOptions options_;
  util::ThreadPool* pool_;
  io::ShardPackReader reader_;
  /// Shared with every decoded matrix's deleter, so buffers recycle even
  /// when a shard outlives the source.
  std::shared_ptr<BufferPool> buffers_;

  // materialize() single-flight state.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool materializing_ = false;
  mutable std::shared_ptr<const sparse::CsrMatrix> materialized_;

  /// Declared last: its destructor drains in-flight background decodes,
  /// which read reader_ and buffers_ above.
  mutable std::unique_ptr<ShardCache> cache_;
};

}  // namespace isasgd::data
