// Compiled columnar shard format for out-of-core training ("shardpack").
//
// StreamingSource re-parses libsvm text (or re-validates raw binary) on
// every shard fault, and adaptive-IS setup plus PartitionPlan construction
// need a full data pass just to compute row norms and per-shard Φ totals.
// A shardpack is the compiled answer: the dataset pre-sharded into columnar
// blocks that decode with a few memcpys and a varint scan, every section
// CRC-protected, and *sidecars* carrying each row's squared norm and each
// shard's totals — recorded at pack time with the exact arithmetic of the
// loaded path (`row.squared_norm()`), so setup over a packed file touches
// no row data at all and still produces bit-identical models.
//
// File layout (all integers little-endian):
//
//   bytes 0..3   magic "ISSP"
//   u32          format version (kShardPackVersion)
//   -- header, one trailing CRC32 over the span:
//   u64          file_bytes   (total file size; any truncation is detected
//                              at open by comparing against the real size)
//   u64          rows, dim, nnz
//   u64          shard_rows   (nominal rows per shard)
//   u64          shard_count
//   u8           value kind: 0 = f64, 1 = f32 (lossy, half the bytes)
//   u8 ×7        reserved (zero)
//   u32          header CRC
//   -- shard directory, one trailing CRC32:
//   per shard:   u64 block_offset, u64 block_bytes, u64 row_begin,
//                u64 row_count, u64 shard_nnz
//   u32          directory CRC
//   -- sidecars, one trailing CRC32:
//   f64 × rows         row squared norms (exact row(i).squared_norm())
//   f64 × shard_count  per-shard Σ squared-norm totals
//   u32          sidecar CRC
//   -- shard blocks, each starting at its directory block_offset
//      (8-byte aligned), block_bytes of payload + trailing u32 CRC:
//   u64          index_bytes  (length of the varint stream)
//   u8 × index_bytes  delta-encoded column indices: per row, the first
//                     column is encoded absolute, each later one as
//                     (col - prev - 1) — strict increase is a decode
//                     guarantee, not a validation pass
//   pad to 8
//   value column: shard_nnz × 4 or × 8 (f32 widened to f64 on decode)
//   f64 × row_count   labels
//   u32 × row_count   per-row nnz (rebuilds the shard row_ptr)
//   u32          block CRC
//
// Open-time validation covers magic, version, header/directory/sidecar
// CRCs, the declared-vs-real file size, and directory geometry, so *every*
// prefix truncation and any metadata corruption fails at open. Geometry
// includes a size bound: blocks lie in file order without overlap, and
// each is large enough for its declared rows and non-zeros
// (8 + nnz·(1 + value width) + row_count·12 ≤ block_bytes), so no count in
// a CRC-valid but crafted directory can make a decode allocate more than a
// few times the file size. Shard block CRCs are verified once, on the
// shard's first decode. Writes go to `path + ".tmp"` and rename over
// `path` (same durability contract as io::checkpoint).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/csr_matrix.hpp"

namespace isasgd::data {
class DataSource;
}

namespace isasgd::io {

/// Raised on any shardpack write/open/decode failure: missing file, bad
/// magic, unsupported version, truncation, CRC mismatch, malformed varint
/// stream. The message names the file and the failing part — a defective
/// pack never yields a partial dataset.
class ShardPackError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kShardPackVersion = 1;
inline constexpr char kShardPackMagic[4] = {'I', 'S', 'S', 'P'};

enum class PackValueKind : std::uint8_t {
  kF64 = 0,  ///< lossless; packed training is bit-identical to the source
  kF32 = 1,  ///< half the value bytes; values round-trip through float
};

struct ShardPackWriteOptions {
  /// Rows per shard. Ignored (the source's own sharding wins) when writing
  /// from a DataSource; used when packing a plain CsrMatrix.
  std::size_t shard_rows = 4096;
  PackValueKind values = PackValueKind::kF64;
};

/// Packs `data` to `path` atomically (tmp + rename). Throws ShardPackError
/// when the file cannot be written.
void write_shardpack(const std::string& path, const sparse::CsrMatrix& data,
                     const ShardPackWriteOptions& options = {});

/// Packs a DataSource shard-by-shard — shard geometry is preserved, and
/// peak memory is one shard, so a StreamingSource converts files larger
/// than RAM. Sidecars are computed per shard as it streams through.
void write_shardpack(const std::string& path, const data::DataSource& source,
                     const ShardPackWriteOptions& options = {});

/// Memory-mapped shardpack reader. Open validates all metadata (see file
/// comment); shard payload CRCs are checked once on first decode. Decoding
/// fills caller-provided buffers so a cache layer can pool and reuse them.
/// Thread-safe: decode_shard may be called concurrently.
class ShardPackReader {
 public:
  /// Maps `path` and validates. Throws ShardPackError on any defect.
  explicit ShardPackReader(std::string path);
  ~ShardPackReader();

  ShardPackReader(const ShardPackReader&) = delete;
  ShardPackReader& operator=(const ShardPackReader&) = delete;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] PackValueKind value_kind() const noexcept { return values_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  [[nodiscard]] std::size_t shard_rows(std::size_t s) const {
    return shards_.at(s).row_count;
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const {
    return shards_.at(s).row_begin;
  }
  [[nodiscard]] std::size_t shard_nnz(std::size_t s) const {
    return shards_.at(s).nnz;
  }
  /// Encoded bytes of shard s on disk (payload, excluding its CRC).
  [[nodiscard]] std::size_t shard_bytes(std::size_t s) const {
    return shards_.at(s).block_bytes;
  }

  /// Sidecar: exact row(i).squared_norm() for global row i.
  [[nodiscard]] double row_squared_norm(std::size_t row) const {
    return row_sq_norms_.at(row);
  }
  [[nodiscard]] const std::vector<double>& row_squared_norms() const noexcept {
    return row_sq_norms_;
  }
  /// Sidecar: Σ row_squared_norm over shard s (pack-time row order).
  [[nodiscard]] double shard_sq_norm_sum(std::size_t s) const {
    return shard_sq_sums_.at(s);
  }

  /// Decodes shard s into the given CSR buffers (resized as needed; capacity
  /// is reused across calls — the pooling hook). Verifies the block CRC on
  /// the shard's first decode. Throws ShardPackError on corruption.
  void decode_shard(std::size_t s, sparse::Array<std::size_t>& row_ptr,
                    sparse::Array<sparse::index_t>& col_idx,
                    sparse::Array<sparse::value_t>& values,
                    sparse::Array<sparse::value_t>& labels) const;

  /// The decode body behind decode_shard, writing into caller-owned slices
  /// of a larger CSR image: row_ends[r] = nnz_base + (end of row r within
  /// the shard) for its shard_rows(s) rows, and shard_nnz(s) entries of
  /// col_idx and values and shard_rows(s) labels. Same checks and errors as
  /// decode_shard; decodes of distinct shards touch disjoint slices, so
  /// they may run concurrently into one image.
  void decode_shard_into(std::size_t s, std::size_t nnz_base,
                         std::size_t* row_ends, sparse::index_t* col_idx,
                         sparse::value_t* values,
                         sparse::value_t* labels) const;

 private:
  struct ShardMeta {
    std::uint64_t block_offset = 0;
    std::uint64_t block_bytes = 0;
    std::uint64_t row_begin = 0;
    std::uint64_t row_count = 0;
    std::uint64_t nnz = 0;
  };

  /// shards_[s], or ShardPackError for an ordinal past the directory.
  [[nodiscard]] const ShardMeta& meta(std::size_t s) const;
  [[nodiscard]] const std::uint8_t* block(std::size_t s) const {
    return map_ + shards_[s].block_offset;
  }
  void verify_block_crc(std::size_t s) const;

  std::string path_;
  const std::uint8_t* map_ = nullptr;  ///< whole-file read-only mapping
  std::size_t map_bytes_ = 0;

  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::size_t nnz_ = 0;
  PackValueKind values_ = PackValueKind::kF64;
  std::vector<ShardMeta> shards_;
  std::vector<double> row_sq_norms_;
  std::vector<double> shard_sq_sums_;

  /// One flag per shard: block CRC verified. Guarded by crc_mu_; the CRC
  /// itself is computed outside the lock.
  mutable std::mutex crc_mu_;
  mutable std::vector<bool> crc_checked_;
};

/// True when the file at `path` starts with the ISSP magic (cheap sniff for
/// open_source auto-detection; does not validate anything else).
[[nodiscard]] bool is_shardpack_file(const std::string& path);

}  // namespace isasgd::io
