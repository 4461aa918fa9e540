// Immutable CSR (compressed sparse row) dataset container.
//
// A training dataset is a CSR matrix of n rows (samples) over d columns
// (features) plus a label vector. Rows are handed to the solvers as
// SparseVectorView, so the inner loops never materialise dense vectors.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sparse/sparse_vector.hpp"

namespace isasgd::sparse {

/// std::allocator whose argument-less construct() default-initialises, so
/// sizing a vector of a trivial type leaves its new elements unwritten
/// instead of zero-filling them. Every construct() with arguments (copies,
/// fills, push_back) behaves as std::allocator's.
template <class T>
struct DefaultInit : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInit<U>;
  };

  DefaultInit() noexcept = default;
  template <class U>
  DefaultInit(const DefaultInit<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// The storage of a CSR array. `Array<T> a(n)` and `a.resize(n)` allocate
/// without writing, so a producer that fills every element itself (a pack
/// decode, a parser) writes each page once, and the first write is the
/// first touch. The caller must write every element it sized.
template <class T>
using Array = std::vector<T, DefaultInit<T>>;

/// Immutable CSR matrix with per-row labels. Build with CsrBuilder or the
/// explicit-array constructor (which validates all invariants).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes the classic CSR triplet plus labels.
  ///   row_ptr: size n+1, non-decreasing, row_ptr[0]==0, row_ptr[n]==nnz
  ///   col_idx: strictly increasing within each row, all < dim
  ///   labels : size n (±1 for classification, arbitrary for regression)
  /// Throws std::invalid_argument on any violation.
  CsrMatrix(std::size_t dim, Array<std::size_t> row_ptr,
            Array<index_t> col_idx, Array<value_t> values,
            Array<value_t> labels);

  /// Adopts the arrays without the O(nnz) invariant walk of the validating
  /// constructor. Only for producers whose output is an invariant by
  /// construction AND integrity-checked another way — io::ShardPackReader
  /// decodes behind a per-shard CRC and a delta encoding that cannot
  /// express a non-increasing row. Size consistency (the O(1) checks) is
  /// still enforced.
  [[nodiscard]] static CsrMatrix from_trusted_parts(
      std::size_t dim, Array<std::size_t> row_ptr, Array<index_t> col_idx,
      Array<value_t> values, Array<value_t> labels);

  /// Moves the four arrays out, leaving the matrix empty. The recycling
  /// half of buffer pooling: a cache evicting a decoded shard reclaims its
  /// allocations for the next decode instead of freeing them.
  void release(Array<std::size_t>& row_ptr, Array<index_t>& col_idx,
               Array<value_t>& values, Array<value_t>& labels);

  [[nodiscard]] std::size_t rows() const noexcept {
    return labels_.size();
  }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return col_idx_.size(); }

  /// View of row i's features.
  [[nodiscard]] SparseVectorView row(std::size_t i) const noexcept {
    const std::size_t begin = row_ptr_[i], end = row_ptr_[i + 1];
    return {{col_idx_.data() + begin, end - begin},
            {values_.data() + begin, end - begin}};
  }

  /// Label of row i.
  [[nodiscard]] value_t label(std::size_t i) const noexcept {
    return labels_[i];
  }

  [[nodiscard]] const Array<value_t>& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] const Array<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const Array<index_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const Array<value_t>& values() const noexcept {
    return values_;
  }

  /// Fraction of nonzero entries: nnz / (rows · dim). This is the "∇fi
  /// sparsity" column of the paper's Table 1 (gradient sparsity equals data
  /// sparsity for linear models).
  [[nodiscard]] double density() const noexcept;

  /// Average nnz per row.
  [[nodiscard]] double mean_row_nnz() const noexcept;

  /// Returns a new matrix containing the given rows (in the given order).
  /// Used by the partitioners to materialise per-thread shards in tests.
  [[nodiscard]] CsrMatrix select_rows(const std::vector<std::size_t>& order) const;

  /// Returns a human-readable one-line summary, e.g.
  /// "n=19996 d=1355191 nnz=9.1e6 density=3.4e-4".
  [[nodiscard]] std::string summary() const;

 private:
  std::size_t dim_ = 0;
  Array<std::size_t> row_ptr_{0};
  Array<index_t> col_idx_;
  Array<value_t> values_;
  Array<value_t> labels_;
};

}  // namespace isasgd::sparse
