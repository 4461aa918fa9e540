#include "io/binary.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

namespace isasgd::io {

namespace {

constexpr char kDatasetMagic[8] = {'I', 'S', 'A', 'S', 'G', 'D', 'D', '1'};
constexpr char kModelMagic[8] = {'I', 'S', 'A', 'S', 'G', 'D', 'W', '1'};

void write_raw(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw std::runtime_error("binary write failed");
}

void read_raw(std::istream& in, void* data, std::size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    throw std::runtime_error("binary read failed: truncated stream");
  }
}

template <class T>
void write_value(std::ostream& out, T v) {
  write_raw(out, &v, sizeof v);
}

template <class T>
T read_value(std::istream& in) {
  T v;
  read_raw(in, &v, sizeof v);
  return v;
}

template <class T, class A>
void write_vector(std::ostream& out, const std::vector<T, A>& v) {
  write_raw(out, v.data(), v.size() * sizeof(T));
}

/// Bytes `in` holds past its read position; nullopt when it cannot seek.
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here < 0) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

/// `count` elements into a fresh V (a std::vector or a sparse::Array).
/// The count comes from a header, so it sizes nothing the stream cannot
/// fill: a seekable stream is checked before the one allocation, and any
/// other grows the array in steps that at most double it, so a header that
/// announces more than the stream holds fails at the first missing byte.
template <class V>
V read_vector(std::istream& in, std::size_t count) {
  using T = typename V::value_type;
  constexpr std::size_t kMaxElements = std::size_t{1} << 34;
  constexpr std::size_t kFirstStep = (std::size_t{1} << 20) / sizeof(T);
  if (count > kMaxElements) {
    throw std::runtime_error("binary read failed: implausible element count");
  }
  const std::optional<std::uint64_t> left = remaining_bytes(in);
  if (left && count > *left / sizeof(T)) {
    throw std::runtime_error("binary read failed: truncated stream");
  }
  const std::size_t first_step = left ? count : kFirstStep;
  V v;
  while (v.size() < count) {
    const std::size_t have = v.size();
    const std::size_t step =
        std::min(count - have, std::max(first_step, have));
    v.resize(have + step);
    read_raw(in, v.data() + have, step * sizeof(T));
  }
  return v;
}

}  // namespace

void write_dataset_binary(std::ostream& out, const sparse::CsrMatrix& data) {
  write_raw(out, kDatasetMagic, sizeof kDatasetMagic);
  write_value<std::uint64_t>(out, data.dim());
  write_value<std::uint64_t>(out, data.rows());
  write_value<std::uint64_t>(out, data.nnz());
  // row_ptr is stored as u64 regardless of the in-memory size_t width.
  std::vector<std::uint64_t> ptr(data.row_ptr().begin(), data.row_ptr().end());
  write_vector(out, ptr);
  write_vector(out, data.col_idx());
  write_vector(out, data.values());
  write_vector(out, data.labels());
}

void write_dataset_binary_file(const std::string& path,
                               const sparse::CsrMatrix& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_dataset_binary_file: cannot open '" +
                             path + "'");
  }
  write_dataset_binary(out, data);
}

sparse::CsrMatrix read_dataset_binary(std::istream& in) {
  char magic[8];
  read_raw(in, magic, sizeof magic);
  if (std::memcmp(magic, kDatasetMagic, sizeof magic) != 0) {
    throw std::runtime_error("read_dataset_binary: bad magic");
  }
  const auto dim = read_value<std::uint64_t>(in);
  const auto rows = read_value<std::uint64_t>(in);
  const auto nnz = read_value<std::uint64_t>(in);
  // Plausibility bounds catch corrupted headers before any allocation; 2^40
  // columns is three orders of magnitude beyond the paper's largest dataset.
  constexpr std::uint64_t kMaxDim = 1ULL << 40;
  if (dim > kMaxDim) {
    throw std::runtime_error("read_dataset_binary: implausible dimension");
  }
  // Division, not multiplication: rows·dim can overflow u64 on a corrupt
  // header, which would defeat this very check.
  if (nnz / std::max<std::uint64_t>(1, dim) > rows) {
    throw std::runtime_error("read_dataset_binary: nnz exceeds rows*dim");
  }
  const auto ptr64 = read_vector<sparse::Array<std::uint64_t>>(in, rows + 1);
  auto col = read_vector<sparse::Array<sparse::index_t>>(in, nnz);
  auto val = read_vector<sparse::Array<sparse::value_t>>(in, nnz);
  auto lab = read_vector<sparse::Array<sparse::value_t>>(in, rows);
  sparse::Array<std::size_t> ptr(ptr64.begin(), ptr64.end());
  // CsrMatrix's constructor re-validates every CSR invariant.
  return sparse::CsrMatrix(dim, std::move(ptr), std::move(col),
                           std::move(val), std::move(lab));
}

sparse::CsrMatrix read_dataset_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_dataset_binary_file: cannot open '" +
                             path + "'");
  }
  return read_dataset_binary(in);
}

void write_model_binary(std::ostream& out, std::span<const double> weights) {
  write_raw(out, kModelMagic, sizeof kModelMagic);
  write_value<std::uint64_t>(out, weights.size());
  write_raw(out, weights.data(), weights.size() * sizeof(double));
}

void write_model_binary_file(const std::string& path,
                             std::span<const double> weights) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_model_binary_file: cannot open '" + path +
                             "'");
  }
  write_model_binary(out, weights);
}

std::vector<double> read_model_binary(std::istream& in) {
  char magic[8];
  read_raw(in, magic, sizeof magic);
  if (std::memcmp(magic, kModelMagic, sizeof magic) != 0) {
    throw std::runtime_error("read_model_binary: bad magic");
  }
  const auto dim = read_value<std::uint64_t>(in);
  return read_vector<std::vector<double>>(in, dim);
}

std::vector<double> read_model_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_model_binary_file: cannot open '" + path +
                             "'");
  }
  return read_model_binary(in);
}

}  // namespace isasgd::io
