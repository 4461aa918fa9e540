#include "sparse/csr_matrix.hpp"

#include <sstream>
#include <stdexcept>

namespace isasgd::sparse {

CsrMatrix::CsrMatrix(std::size_t dim, Array<std::size_t> row_ptr,
                     Array<index_t> col_idx, Array<value_t> values,
                     Array<value_t> labels)
    : dim_(dim),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)),
      labels_(std::move(labels)) {
  if (row_ptr_.empty() || row_ptr_.front() != 0) {
    throw std::invalid_argument("CsrMatrix: row_ptr must start with 0");
  }
  if (row_ptr_.size() != labels_.size() + 1) {
    throw std::invalid_argument("CsrMatrix: row_ptr size != labels size + 1");
  }
  if (row_ptr_.back() != col_idx_.size()) {
    throw std::invalid_argument("CsrMatrix: row_ptr back != nnz");
  }
  if (col_idx_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: col/value size mismatch");
  }
  for (std::size_t i = 0; i + 1 < row_ptr_.size(); ++i) {
    if (row_ptr_[i + 1] < row_ptr_[i]) {
      throw std::invalid_argument("CsrMatrix: row_ptr must be non-decreasing");
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] >= dim_) {
        throw std::invalid_argument("CsrMatrix: column index out of range");
      }
      if (k > row_ptr_[i] && col_idx_[k] <= col_idx_[k - 1]) {
        throw std::invalid_argument(
            "CsrMatrix: column indices must be strictly increasing per row");
      }
    }
  }
}

CsrMatrix CsrMatrix::from_trusted_parts(std::size_t dim,
                                        Array<std::size_t> row_ptr,
                                        Array<index_t> col_idx,
                                        Array<value_t> values,
                                        Array<value_t> labels) {
  if (row_ptr.empty() || row_ptr.front() != 0 ||
      row_ptr.size() != labels.size() + 1 ||
      row_ptr.back() != col_idx.size() || col_idx.size() != values.size()) {
    throw std::invalid_argument(
        "CsrMatrix::from_trusted_parts: inconsistent array sizes");
  }
  CsrMatrix m;
  m.dim_ = dim;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.labels_ = std::move(labels);
  return m;
}

void CsrMatrix::release(Array<std::size_t>& row_ptr,
                        Array<index_t>& col_idx, Array<value_t>& values,
                        Array<value_t>& labels) {
  row_ptr = std::move(row_ptr_);
  col_idx = std::move(col_idx_);
  values = std::move(values_);
  labels = std::move(labels_);
  dim_ = 0;
  row_ptr_ = {0};
  col_idx_.clear();
  values_.clear();
  labels_.clear();
}

double CsrMatrix::density() const noexcept {
  const double cells = static_cast<double>(rows()) * static_cast<double>(dim_);
  return cells > 0 ? static_cast<double>(nnz()) / cells : 0.0;
}

double CsrMatrix::mean_row_nnz() const noexcept {
  return rows() ? static_cast<double>(nnz()) / static_cast<double>(rows()) : 0.0;
}

CsrMatrix CsrMatrix::select_rows(const std::vector<std::size_t>& order) const {
  Array<std::size_t> new_ptr;
  new_ptr.reserve(order.size() + 1);
  new_ptr.push_back(0);
  Array<index_t> new_col;
  Array<value_t> new_val;
  Array<value_t> new_lab;
  new_lab.reserve(order.size());
  for (std::size_t i : order) {
    if (i >= rows()) {
      throw std::out_of_range("select_rows: row index out of range");
    }
    const std::size_t begin = row_ptr_[i], end = row_ptr_[i + 1];
    new_col.insert(new_col.end(), col_idx_.begin() + static_cast<std::ptrdiff_t>(begin),
                   col_idx_.begin() + static_cast<std::ptrdiff_t>(end));
    new_val.insert(new_val.end(), values_.begin() + static_cast<std::ptrdiff_t>(begin),
                   values_.begin() + static_cast<std::ptrdiff_t>(end));
    new_ptr.push_back(new_col.size());
    new_lab.push_back(labels_[i]);
  }
  return CsrMatrix(dim_, std::move(new_ptr), std::move(new_col),
                   std::move(new_val), std::move(new_lab));
}

std::string CsrMatrix::summary() const {
  std::ostringstream os;
  os << "n=" << rows() << " d=" << dim_ << " nnz=" << nnz()
     << " density=" << density();
  return os.str();
}

}  // namespace isasgd::sparse
