#include "data/data_source.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace isasgd::data {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over the 8 bytes of one word — the mixing step both fingerprint
/// implementations share.
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::vector<std::size_t> DataSource::shard_sizes() const {
  std::vector<std::size_t> sizes(shard_count());
  for (std::size_t s = 0; s < sizes.size(); ++s) sizes[s] = shard_rows(s);
  return sizes;
}

std::uint64_t DataSource::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_word(h, rows());
  h = fnv1a_word(h, dim());
  h = fnv1a_word(h, nnz());
  h = fnv1a_word(h, shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    h = fnv1a_word(h, shard_rows(s));
  }
  return h;
}

std::size_t DataSource::resident_bytes() const {
  // CSR footprint estimate: values + column indices per non-zero, one label
  // and one row_ptr entry per row.
  return nnz() * (sizeof(sparse::value_t) + sizeof(sparse::index_t)) +
         rows() * (sizeof(sparse::value_t) + sizeof(std::size_t));
}

sparse::CsrMatrix slice_rows(const sparse::CsrMatrix& data,
                             std::size_t row_begin, std::size_t rows) {
  if (row_begin + rows > data.rows()) {
    throw std::out_of_range("slice_rows: range exceeds dataset");
  }
  const auto& ptr = data.row_ptr();
  const std::size_t nnz_begin = ptr[row_begin];
  const std::size_t nnz_end = ptr[row_begin + rows];
  sparse::Array<std::size_t> row_ptr(rows + 1);
  for (std::size_t r = 0; r <= rows; ++r) {
    row_ptr[r] = ptr[row_begin + r] - nnz_begin;
  }
  sparse::Array<sparse::index_t> col(data.col_idx().begin() + nnz_begin,
                                     data.col_idx().begin() + nnz_end);
  sparse::Array<sparse::value_t> val(data.values().begin() + nnz_begin,
                                     data.values().begin() + nnz_end);
  sparse::Array<sparse::value_t> lab(data.labels().begin() + row_begin,
                                     data.labels().begin() + row_begin + rows);
  return sparse::CsrMatrix(data.dim(), std::move(row_ptr), std::move(col),
                           std::move(val), std::move(lab));
}

InMemorySource::InMemorySource(const sparse::CsrMatrix& matrix,
                               std::size_t shard_rows)
    : matrix_(&matrix) {
  const std::size_t n = matrix.rows();
  if (shard_rows == 0 || shard_rows >= n) {
    // Zero-copy single shard: the shard matrix aliases the borrowed full
    // matrix (non-owning shared_ptr — lifetime is the caller's contract,
    // exactly as for materialize()).
    auto whole = std::make_shared<Shard>();
    whole->index = 0;
    whole->row_begin = 0;
    whole->matrix = std::shared_ptr<const sparse::CsrMatrix>(
        std::shared_ptr<const void>(), matrix_);
    shards_.push_back(std::move(whole));
    return;
  }
  for (std::size_t begin = 0, s = 0; begin < n; begin += shard_rows, ++s) {
    const std::size_t count = std::min(shard_rows, n - begin);
    auto shard = std::make_shared<Shard>();
    shard->index = s;
    shard->row_begin = begin;
    shard->matrix = std::make_shared<const sparse::CsrMatrix>(
        slice_rows(matrix, begin, count));
    shards_.push_back(std::move(shard));
  }
}

std::size_t InMemorySource::shard_rows(std::size_t s) const {
  return shards_.at(s)->matrix->rows();
}

std::size_t InMemorySource::shard_begin(std::size_t s) const {
  return shards_.at(s)->row_begin;
}

std::uint64_t InMemorySource::fingerprint() const {
  std::uint64_t h = DataSource::fingerprint();
  // Content sample: every label, plus up to 256 strided (column, value-bits)
  // pairs — cheap, stable across processes, and sensitive to the data
  // itself rather than just its shape.
  for (double y : matrix_->labels()) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(y));
  }
  const auto& col = matrix_->col_idx();
  const auto& val = matrix_->values();
  const std::size_t count = col.size();
  const std::size_t stride = std::max<std::size_t>(1, count / 256);
  for (std::size_t k = 0; k < count; k += stride) {
    h = fnv1a_word(h, col[k]);
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(val[k]));
  }
  return h;
}

ShardPtr InMemorySource::shard(std::size_t s) const {
  if (s >= shards_.size()) {
    throw std::out_of_range("InMemorySource::shard: ordinal " +
                            std::to_string(s) + " of " +
                            std::to_string(shards_.size()));
  }
  return shards_[s];
}

}  // namespace isasgd::data
