// Incremental CSR construction: append rows, then freeze into an immutable
// CsrMatrix. The synthetic generators and the LibSVM parser both build
// datasets through this interface.
#pragma once

#include <vector>

#include "sparse/csr_matrix.hpp"
#include "sparse/sparse_vector.hpp"

namespace isasgd::sparse {

/// Append-only builder for CsrMatrix.
class CsrBuilder {
 public:
  /// `dim_hint` pre-sets the dimensionality; the final dim is
  /// max(dim_hint, 1 + max column index seen).
  explicit CsrBuilder(std::size_t dim_hint = 0) : dim_(dim_hint) {}

  /// Reserves space for `rows` rows of ~`nnz_per_row` entries each.
  void reserve(std::size_t rows, std::size_t nnz_per_row);

  /// Appends a row given strictly-increasing indices. Throws on violation.
  void add_row(std::span<const index_t> indices, std::span<const value_t> values,
               value_t label);

  /// Appends a row from a SparseVector (indices already validated).
  void add_row(const SparseVector& row, value_t label) {
    add_row(row.indices(), row.values(), label);
  }

  /// Appends a row from unsorted pairs (sorted + deduplicated internally).
  void add_row_unsorted(std::vector<index_t> indices,
                        std::vector<value_t> values, value_t label);

  [[nodiscard]] std::size_t rows() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t nnz() const noexcept { return col_idx_.size(); }

  /// Freezes into an immutable matrix. The builder is left empty and can be
  /// reused.
  [[nodiscard]] CsrMatrix build();

 private:
  std::size_t dim_;
  Array<std::size_t> row_ptr_{0};
  Array<index_t> col_idx_;
  Array<value_t> values_;
  Array<value_t> labels_;
};

}  // namespace isasgd::sparse
