// DataSource: the dataset abstraction behind out-of-core training.
//
// The seed library trained every solver against one in-memory CsrMatrix,
// which caps workloads at whatever fits in RAM. A DataSource instead exposes
// a dataset as an ordered list of *shards* — contiguous row ranges, each
// materialised as its own CsrMatrix over the full feature dimensionality —
// so a training loop can walk shard-by-shard and never needs more than a
// bounded window of the data resident at once.
//
// Two backends:
//   * InMemorySource  — wraps an existing CsrMatrix. Single-shard by default
//     (zero-copy; solvers see exactly the seed behaviour), or chunked into
//     `shard_rows`-row shards to share the shard-major code path with the
//     streaming backend — chunked-but-resident is the reference the
//     streaming parity tests compare against.
//   * StreamingSource — streaming_source.hpp: reads libsvm/binary files
//     shard-by-shard under a memory budget with an LRU cache + prefetch.
//
// Global row ids: shard s covers rows [shard_begin(s), shard_begin(s) +
// shard_rows(s)); a shard matrix's row r is global row shard_begin(s) + r.
// Shard matrices keep the full dim(), so one model vector indexes
// identically against any shard or the full matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sparse/csr_matrix.hpp"

namespace isasgd::data {

/// Cache behaviour counters of an out-of-core backend (monotonic since
/// construction, except the resident_*/prefetch_inflight gauges). Shared by
/// every cached backend — StreamingSource::CacheStats aliases it — and
/// surfaced through DataSource::cache_stats() so bench/service layers report
/// uniformly.
struct CacheStats {
  std::uint64_t loads = 0;       ///< shard reads that hit the file
  std::uint64_t hits = 0;        ///< shard() served from cache
  std::uint64_t misses = 0;      ///< shard() had to read the file
  std::uint64_t evictions = 0;   ///< shards dropped for the budget
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;  ///< cache hits on a prefetched shard
  /// shard() arrived while the shard's background prefetch was still
  /// loading: the caller blocked on the in-flight read instead of issuing
  /// its own. A racing prefetch beats a cold miss (the I/O was already in
  /// motion) but loses to a hit — a high race rate means prefetches are
  /// issued too late, i.e. the lookahead depth is too shallow.
  std::uint64_t prefetch_races = 0;
  /// Prefetched shards evicted before any shard() call touched them: I/O
  /// and budget spent for nothing. A high wasted rate means the lookahead
  /// overruns what the budget can hold resident.
  std::uint64_t prefetch_wasted = 0;
  /// Failed background loads retried in place (transient I/O errors; see
  /// ShardCache::Options::prefetch_retries). Only the retries themselves —
  /// a load that fails past its retry budget is dropped as before, and the
  /// blocking shard() reload surfaces the error.
  std::uint64_t prefetch_retries = 0;
  /// Nanoseconds the completed loads took, demand and background alike
  /// (load_ns / loads is the mean cost of one shard load).
  std::uint64_t load_ns = 0;
  /// Nanoseconds shard() calls spent blocked on prefetches they raced: for
  /// each race, the wait of the call that raced it, until the load ended
  /// (race_wait_ns / prefetch_races is the mean wait of one race).
  std::uint64_t race_wait_ns = 0;
  /// Background loads in flight right now (gauge, not monotonic).
  std::uint64_t prefetch_inflight = 0;
  std::size_t resident_bytes = 0;  ///< current estimated cache footprint
  std::size_t resident_shards = 0;
};

/// Per-row statistics recorded at pack time (io::shardpack sidecars) so
/// adaptive-IS setup and PartitionPlan construction need no data pass.
/// Values are the *exact* f64 results of the loaded-path arithmetic —
/// row_squared_norm(i) is bit-identical to data.row(i).squared_norm() —
/// so sidecar-fed setup produces bit-identical models.
class RowStats {
 public:
  virtual ~RowStats() = default;
  /// Exact row(i).squared_norm() of global row i.
  [[nodiscard]] virtual double row_squared_norm(std::size_t row) const = 0;
};

/// One materialised shard. `matrix` may alias the full dataset (in-memory
/// single shard) or own just this row range (chunked/streaming); holders
/// keep it alive via the shared_ptr regardless of cache eviction.
struct Shard {
  std::size_t index = 0;      ///< shard ordinal
  std::size_t row_begin = 0;  ///< global row id of matrix->row(0)
  std::shared_ptr<const sparse::CsrMatrix> matrix;
};

using ShardPtr = std::shared_ptr<const Shard>;

/// Abstract dataset: global shape plus blocking shard access. Thread-safe:
/// shard()/prefetch() may be called concurrently (the streaming backend
/// locks internally; the in-memory one is immutable after construction).
class DataSource {
 public:
  virtual ~DataSource() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t dim() const = 0;
  [[nodiscard]] virtual std::size_t nnz() const = 0;

  [[nodiscard]] virtual std::size_t shard_count() const = 0;
  /// Rows in shard s.
  [[nodiscard]] virtual std::size_t shard_rows(std::size_t s) const = 0;
  /// Global row id of shard s's first row.
  [[nodiscard]] virtual std::size_t shard_begin(std::size_t s) const = 0;

  /// Fetches shard s, blocking on I/O when it is not resident. Throws
  /// std::out_of_range on an invalid ordinal and propagates backend read
  /// errors.
  [[nodiscard]] virtual ShardPtr shard(std::size_t s) const = 0;

  /// Hint that shard s will be needed soon; backends may load it in the
  /// background. Default: no-op. Never throws for in-range ordinals
  /// (failures resurface on the blocking shard() call).
  virtual void prefetch(std::size_t s) const { (void)s; }

  /// How many shards ahead a shard-major driver should prefetch (≥ 1).
  /// Cached backends adapt this per epoch (see data::PrefetchAutotuner);
  /// resident backends return 1 and ignore prefetch anyway.
  [[nodiscard]] virtual std::size_t prefetch_depth() const { return 1; }

  /// Epoch fence hook: cached backends feed the epoch's counter deltas to
  /// their prefetch autotuner here. Default: no-op. Called by shard-major
  /// epoch drivers; wall-clock tuning only, never affects results.
  virtual void end_epoch() const {}

  /// Cache/prefetch counters for out-of-core backends; nullopt when the
  /// backend has no cache (fully resident).
  [[nodiscard]] virtual std::optional<CacheStats> cache_stats() const {
    return std::nullopt;
  }

  /// Pack-time per-row statistics, or null when the backend has none (only
  /// io::shardpack files carry them). Borrowed pointer, valid for the
  /// source's lifetime.
  [[nodiscard]] virtual const RowStats* row_stats() const { return nullptr; }

  /// True when materialize() returns without reading or decoding anything:
  /// always for in-memory sources, and for a file-backed source once its
  /// materialize() has cached the matrix. metrics::Evaluator scores such a
  /// source straight from that matrix, and SolverContext::data() times
  /// only materializations that are not.
  [[nodiscard]] virtual bool resident() const = 0;

  /// The dataset as one full CsrMatrix. In-memory sources return their
  /// wrapped matrix; a streaming source materialises (and caches) the whole
  /// file on first call — a documented escape hatch for solvers without
  /// streaming support, which defeats the memory budget.
  [[nodiscard]] virtual const sparse::CsrMatrix& materialize() const = 0;

  /// An independent handle on the same data, for a process forked after
  /// it is made: it starts no background work and shares no mutable state
  /// with this source, so it stays usable where this source's pool threads
  /// do not run. Null when the shards cannot change after construction
  /// (in-memory sources), which a forked child may read as they are.
  [[nodiscard]] virtual std::unique_ptr<DataSource> reopen() const = 0;

  /// shard_rows(s) for every shard — the shape ShardedSequence schedules
  /// over.
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const;

  /// Stable 64-bit identity of the dataset, used by checkpoint/resume to
  /// refuse restoring a model trained on different data (io/checkpoint.hpp
  /// records it; the service layer enforces the match). The default is an
  /// FNV-1a hash of the geometry — rows, dim, nnz, shard layout — which is
  /// cheap for any backend; InMemorySource strengthens it with a content
  /// sample. Deterministic across processes and platforms for a given
  /// source configuration.
  [[nodiscard]] virtual std::uint64_t fingerprint() const;

  /// Estimated bytes this source keeps resident while training — the
  /// admission currency of the service layer's MemoryGovernor. Resident
  /// backends estimate their full CSR footprint; the streaming backend
  /// reports its configured cache budget (its actual cap) instead.
  [[nodiscard]] virtual std::size_t resident_bytes() const;
};

/// Fully-resident DataSource over a borrowed CsrMatrix (which must outlive
/// the source). `shard_rows` = 0 exposes the matrix as a single zero-copy
/// shard; > 0 splits it into ⌈rows/shard_rows⌉ chunked shards (each copied
/// once at construction) so resident data can exercise the exact shard-major
/// path the streaming backend uses.
class InMemorySource final : public DataSource {
 public:
  explicit InMemorySource(const sparse::CsrMatrix& matrix,
                          std::size_t shard_rows = 0);

  [[nodiscard]] std::size_t rows() const override { return matrix_->rows(); }
  [[nodiscard]] std::size_t dim() const override { return matrix_->dim(); }
  [[nodiscard]] std::size_t nnz() const override { return matrix_->nnz(); }
  [[nodiscard]] std::size_t shard_count() const override {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_rows(std::size_t s) const override;
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override;
  [[nodiscard]] ShardPtr shard(std::size_t s) const override;
  [[nodiscard]] bool resident() const override { return true; }
  [[nodiscard]] const sparse::CsrMatrix& materialize() const override {
    return *matrix_;
  }
  [[nodiscard]] std::unique_ptr<DataSource> reopen() const override {
    return nullptr;
  }
  /// Geometry hash strengthened with a strided sample of the matrix content
  /// (labels, column indices, value bits) — two same-shape datasets with
  /// different content fingerprint differently.
  [[nodiscard]] std::uint64_t fingerprint() const override;

 private:
  const sparse::CsrMatrix* matrix_;
  std::vector<ShardPtr> shards_;
};

/// Copies rows [row_begin, row_begin + rows) of `data` into a standalone
/// CsrMatrix that keeps the full dim(). Shared by the chunked in-memory
/// source and tests.
[[nodiscard]] sparse::CsrMatrix slice_rows(const sparse::CsrMatrix& data,
                                           std::size_t row_begin,
                                           std::size_t rows);

}  // namespace isasgd::data
