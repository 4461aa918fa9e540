#include "data/streaming_source.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "io/binary.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::data {

namespace {

constexpr char kDatasetMagic[8] = {'I', 'S', 'A', 'S', 'G', 'D', 'D', '1'};

// Binary file layout (io/binary.cpp): 8-byte magic, three u64 header words,
// then the four CSR arrays back to back.
constexpr std::uint64_t kHeaderBytes = 8 + 3 * sizeof(std::uint64_t);

void read_at(std::ifstream& in, std::uint64_t offset, void* out,
             std::size_t bytes, const std::string& path) {
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    throw std::runtime_error("StreamingSource: truncated read from '" + path +
                             "' (file changed since indexing?)");
  }
}

}  // namespace

StreamingSource::StreamingSource(std::string path, StreamingOptions options,
                                 util::ThreadPool* pool)
    : path_(std::move(path)), options_(options), pool_(pool) {
  if (options_.shard_rows == 0) {
    throw std::invalid_argument("StreamingSource: shard_rows must be > 0");
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("StreamingSource: cannot open '" + path_ + "'");
  }
  char magic[8] = {};
  in.read(magic, sizeof magic);
  const bool is_binary = static_cast<std::size_t>(in.gcount()) ==
                             sizeof magic &&
                         std::memcmp(magic, kDatasetMagic, sizeof magic) == 0;
  in.clear();
  in.seekg(0);

  if (is_binary) {
    format_ = Format::kBinary;
    std::uint64_t header[3];  // dim, rows, nnz
    read_at(in, 8, header, sizeof header, path_);
    dim_ = header[0];
    rows_ = header[1];
    nnz_ = header[2];
    // Same plausibility bounds as io::read_dataset_binary: a corrupt header
    // must fail before the row_ptr allocation, not inside it. The nnz bound
    // divides instead of multiplying so rows·dim cannot overflow u64.
    if (dim_ > (std::uint64_t{1} << 40) || rows_ > (std::uint64_t{1} << 34) ||
        nnz_ / std::max<std::uint64_t>(1, dim_) > rows_) {
      throw std::runtime_error("StreamingSource: corrupt header in '" + path_ +
                               "'");
    }
    // Nothing is sized before the file is known to hold the four arrays
    // the header announces (rows ≤ 2^34, so only the nnz term can
    // overflow, and it is bounded by division).
    in.seekg(0, std::ios::end);
    const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
    const std::uint64_t fixed_bytes =
        kHeaderBytes + (rows_ + 1) * sizeof(std::uint64_t) +
        rows_ * sizeof(sparse::value_t);
    if (file_bytes < fixed_bytes ||
        nnz_ > (file_bytes - fixed_bytes) /
                   (sizeof(sparse::index_t) + sizeof(sparse::value_t))) {
      throw std::runtime_error("StreamingSource: truncated read from '" +
                               path_ + "' (the header announces more than "
                               "the file holds)");
    }
    // The row_ptr array is the shard index: 8 bytes per row buys O(1) seeks
    // into the three data arrays.
    binary_row_ptr_.resize(rows_ + 1);
    read_at(in, kHeaderBytes, binary_row_ptr_.data(),
            binary_row_ptr_.size() * sizeof(std::uint64_t), path_);
    if (binary_row_ptr_.front() != 0 || binary_row_ptr_.back() != nnz_ ||
        !std::is_sorted(binary_row_ptr_.begin(), binary_row_ptr_.end())) {
      throw std::runtime_error("StreamingSource: corrupt row_ptr in '" +
                               path_ + "'");
    }
  } else {
    format_ = Format::kLibsvm;
    libsvm_index_ = io::index_libsvm(in, options_.shard_rows,
                                     options_.dim_hint);
    rows_ = libsvm_index_.rows;
    dim_ = libsvm_index_.dim;
    nnz_ = libsvm_index_.nnz;
    const auto& labels = libsvm_index_.distinct_labels;
    if (options_.normalize_binary_labels && labels.size() == 2 &&
        !(labels[0] == -1.0 && labels[1] == 1.0)) {
      map_labels_ = true;
      label_lo_ = labels[0];
    }
  }

  for (std::size_t begin = 0; begin < rows_; begin += options_.shard_rows) {
    shard_begin_.push_back(begin);
    shard_rows_.push_back(std::min(options_.shard_rows, rows_ - begin));
  }

  ShardCache::Options cache_options;
  cache_options.memory_budget_bytes = options_.memory_budget_bytes;
  cache_options.prefetch = options_.prefetch;
  cache_ = std::make_unique<ShardCache>(
      shard_begin_.size(), std::move(cache_options),
      [this](std::size_t s) { return load_shard(s); }, pool_);
}

// The ShardCache destructor (last member, destroyed first) drains in-flight
// background loads before the index members they read disappear.
StreamingSource::~StreamingSource() = default;

void StreamingSource::apply_label_map(sparse::CsrMatrix& shard) const {
  if (!map_labels_) return;
  sparse::Array<sparse::value_t> mapped;
  mapped.reserve(shard.rows());
  for (double y : shard.labels()) {
    mapped.push_back(y == label_lo_ ? -1.0 : 1.0);
  }
  shard = sparse::CsrMatrix(shard.dim(), shard.row_ptr(), shard.col_idx(),
                            shard.values(), std::move(mapped));
}

sparse::CsrMatrix StreamingSource::load_shard_libsvm(std::size_t s) const {
  // Binary mode to match the indexing stream: shard offsets are raw byte
  // positions, and a text-mode seekg on a CRLF platform would land
  // mid-line. The parser strips '\r' itself either way.
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("StreamingSource: cannot reopen '" + path_ + "'");
  }
  in.seekg(static_cast<std::streamoff>(libsvm_index_.shard_offset[s]));
  io::LibsvmReadOptions opt;
  opt.dim_hint = dim_;
  opt.max_rows = shard_rows_[s];
  opt.normalize_binary_labels = false;  // mapped globally, not per shard
  opt.line_number_offset = libsvm_index_.shard_first_line[s] - 1;
  sparse::CsrMatrix shard = io::read_libsvm(in, opt);
  if (shard.rows() != shard_rows_[s]) {
    throw std::runtime_error("StreamingSource: shard " + std::to_string(s) +
                             " of '" + path_ + "' shrank since indexing");
  }
  apply_label_map(shard);
  return shard;
}

sparse::CsrMatrix StreamingSource::load_shard_binary(std::size_t s) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("StreamingSource: cannot reopen '" + path_ + "'");
  }
  const std::size_t r0 = shard_begin_[s];
  const std::size_t r1 = r0 + shard_rows_[s];
  const std::uint64_t p0 = binary_row_ptr_[r0];
  const std::uint64_t p1 = binary_row_ptr_[r1];
  const std::uint64_t col_off =
      kHeaderBytes + (rows_ + 1) * sizeof(std::uint64_t);
  const std::uint64_t val_off = col_off + nnz_ * sizeof(sparse::index_t);
  const std::uint64_t lab_off = val_off + nnz_ * sizeof(sparse::value_t);

  sparse::Array<std::size_t> row_ptr(r1 - r0 + 1);
  for (std::size_t r = r0; r <= r1; ++r) {
    row_ptr[r - r0] = binary_row_ptr_[r] - p0;
  }
  sparse::Array<sparse::index_t> col(p1 - p0);
  sparse::Array<sparse::value_t> val(p1 - p0);
  sparse::Array<sparse::value_t> lab(r1 - r0);
  read_at(in, col_off + p0 * sizeof(sparse::index_t), col.data(),
          col.size() * sizeof(sparse::index_t), path_);
  read_at(in, val_off + p0 * sizeof(sparse::value_t), val.data(),
          val.size() * sizeof(sparse::value_t), path_);
  read_at(in, lab_off + r0 * sizeof(sparse::value_t), lab.data(),
          lab.size() * sizeof(sparse::value_t), path_);
  // The CsrMatrix constructor re-validates the sliced invariants.
  return sparse::CsrMatrix(dim_, std::move(row_ptr), std::move(col),
                           std::move(val), std::move(lab));
}

ShardPtr StreamingSource::load_shard(std::size_t s) const {
  auto shard = std::make_shared<Shard>();
  shard->index = s;
  shard->row_begin = shard_begin_[s];
  shard->matrix = std::make_shared<const sparse::CsrMatrix>(
      format_ == Format::kBinary ? load_shard_binary(s)
                                 : load_shard_libsvm(s));
  return shard;
}

ShardPtr StreamingSource::shard(std::size_t s) const {
  if (s >= shard_count()) {
    throw std::out_of_range("StreamingSource::shard: ordinal " +
                            std::to_string(s) + " of " +
                            std::to_string(shard_count()));
  }
  return cache_->get(s);
}

void StreamingSource::prefetch(std::size_t s) const { cache_->prefetch(s); }

std::size_t StreamingSource::prefetch_depth() const {
  return cache_->prefetch_depth();
}

void StreamingSource::end_epoch() const { cache_->end_epoch(); }

std::unique_ptr<DataSource> StreamingSource::reopen() const {
  return std::make_unique<StreamingSource>(path_, options_, nullptr);
}

bool StreamingSource::resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return materialized_ != nullptr;
}

const sparse::CsrMatrix& StreamingSource::materialize() const {
  std::unique_lock<std::mutex> lock(mu_);
  // Single-flight: a concurrent second caller must wait, not load its own
  // full copy — doubling peak memory is exactly what materialize()'s
  // caller was already risking once.
  cv_.wait(lock, [&] { return !materializing_; });
  if (materialized_) return *materialized_;
  materializing_ = true;
  lock.unlock();
  util::log_warn() << "StreamingSource: materialize() loads the whole '"
                   << path_ << "' into memory, bypassing the "
                   << (options_.memory_budget_bytes >> 20)
                   << " MiB shard budget (solver without streaming "
                      "support?)";
  sparse::CsrMatrix full;
  std::exception_ptr error;
  try {
    if (format_ == Format::kBinary) {
      full = io::read_dataset_binary_file(path_);
    } else {
      io::LibsvmReadOptions opt;
      opt.dim_hint = dim_;
      opt.normalize_binary_labels = options_.normalize_binary_labels;
      full = io::read_libsvm_file(path_, opt);
    }
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  materializing_ = false;
  cv_.notify_all();
  if (error) std::rethrow_exception(error);
  materialized_ = std::make_shared<const sparse::CsrMatrix>(std::move(full));
  return *materialized_;
}

std::optional<StreamingSource::CacheStats> StreamingSource::cache_stats()
    const {
  return cache_->stats();
}

}  // namespace isasgd::data
