#include "data/packed_source.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::data {

/// Recycled CSR decode buffers. A decoded shard's matrix carries a deleter
/// that returns its four arrays here, so in steady state every decode
/// starts from capacity-warm vectors and the data path stops allocating.
struct PackedSource::BufferPool {
  struct Buffers {
    sparse::Array<std::size_t> row_ptr;
    sparse::Array<sparse::index_t> col_idx;
    sparse::Array<sparse::value_t> values;
    sparse::Array<sparse::value_t> labels;
  };

  Buffers acquire() {
    const std::lock_guard<std::mutex> lock(mu);
    if (free.empty()) return {};
    Buffers b = std::move(free.back());
    free.pop_back();
    ++reuses;
    return b;
  }

  void recycle(Buffers b) {
    const std::lock_guard<std::mutex> lock(mu);
    // An unbounded free list would defeat the memory budget if a burst of
    // still-referenced shards all recycled at once; a small cap keeps the
    // pool at "cache capacity + in-flight" depth in practice.
    if (free.size() < 16) free.push_back(std::move(b));
  }

  std::mutex mu;
  std::vector<Buffers> free;
  std::uint64_t reuses = 0;
};

PackedSource::PackedSource(std::string path, PackedOptions options,
                           util::ThreadPool* pool)
    : options_(options),
      pool_(pool),
      reader_(std::move(path)),
      buffers_(std::make_shared<BufferPool>()) {
  ShardCache::Options cache_options;
  cache_options.memory_budget_bytes = options_.memory_budget_bytes;
  cache_options.prefetch = options_.prefetch;
  cache_ = std::make_unique<ShardCache>(
      reader_.shard_count(), std::move(cache_options),
      [this](std::size_t s) { return load_shard(s); }, pool_);
}

// The ShardCache destructor (last member, destroyed first) drains in-flight
// background decodes before reader_/buffers_ disappear.
PackedSource::~PackedSource() = default;

ShardPtr PackedSource::load_shard(std::size_t s) const {
  BufferPool::Buffers buf = buffers_->acquire();
  reader_.decode_shard(s, buf.row_ptr, buf.col_idx, buf.values, buf.labels);
  auto matrix = sparse::CsrMatrix::from_trusted_parts(
      reader_.dim(), std::move(buf.row_ptr), std::move(buf.col_idx),
      std::move(buf.values), std::move(buf.labels));

  // The deleter recycles the arrays instead of freeing them. It holds the
  // pool by shared_ptr, so shards handed to a solver stay safe to destroy
  // after the source itself is gone.
  std::shared_ptr<const sparse::CsrMatrix> owned(
      new sparse::CsrMatrix(std::move(matrix)),
      [pool = buffers_](sparse::CsrMatrix* m) {
        BufferPool::Buffers reclaimed;
        m->release(reclaimed.row_ptr, reclaimed.col_idx, reclaimed.values,
                   reclaimed.labels);
        delete m;
        pool->recycle(std::move(reclaimed));
      });

  auto shard = std::make_shared<Shard>();
  shard->index = s;
  shard->row_begin = reader_.shard_begin(s);
  shard->matrix = std::move(owned);
  return shard;
}

ShardPtr PackedSource::shard(std::size_t s) const { return cache_->get(s); }

void PackedSource::prefetch(std::size_t s) const { cache_->prefetch(s); }

std::size_t PackedSource::prefetch_depth() const {
  return cache_->prefetch_depth();
}

void PackedSource::end_epoch() const { cache_->end_epoch(); }

std::unique_ptr<DataSource> PackedSource::reopen() const {
  return std::make_unique<PackedSource>(reader_.path(), options_, nullptr);
}

std::uint64_t PackedSource::buffer_pool_reuses() const {
  const std::lock_guard<std::mutex> lock(buffers_->mu);
  return buffers_->reuses;
}

bool PackedSource::resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return materialized_ != nullptr;
}

const sparse::CsrMatrix& PackedSource::materialize() const {
  std::unique_lock<std::mutex> lock(mu_);
  // Single-flight, same contract as StreamingSource::materialize().
  cv_.wait(lock, [&] { return !materializing_; });
  if (materialized_) return *materialized_;
  materializing_ = true;
  lock.unlock();
  util::log_warn() << "PackedSource: materialize() decodes the whole '"
                   << reader_.path() << "' into memory, bypassing the "
                   << (options_.memory_budget_bytes >> 20)
                   << " MiB shard budget (solver without streaming support?)";
  std::shared_ptr<const sparse::CsrMatrix> full;
  std::exception_ptr error;
  try {
    // Every shard decodes straight into its slice of the final arrays, at
    // the row and nnz offsets the directory fixes. A shard writes only its
    // own row ends, so no element has two writers. The arrays are sized
    // without being written: the decodes write every element but
    // row_ptr[0] exactly once, and the first write to a page is its first
    // touch, on whichever decode thread owns it. Open-time validation
    // bounded the header totals by the file size.
    const std::size_t shards = reader_.shard_count();
    std::vector<std::size_t> nnz_begin(shards);
    for (std::size_t s = 1; s < shards; ++s) {
      nnz_begin[s] = nnz_begin[s - 1] + reader_.shard_nnz(s - 1);
    }
    sparse::Array<std::size_t> row_ptr(reader_.rows() + 1);
    sparse::Array<sparse::index_t> col_idx(reader_.nnz());
    sparse::Array<sparse::value_t> values(reader_.nnz());
    sparse::Array<sparse::value_t> labels(reader_.rows());
    row_ptr[0] = 0;
    const std::size_t team = std::min<std::size_t>(
        shards, std::max(1u, std::thread::hardware_concurrency()));
    const auto decode_stride = [&](std::size_t tid) {
      for (std::size_t s = tid; s < shards; s += team) {
        const std::size_t row = reader_.shard_begin(s);
        reader_.decode_shard_into(s, nnz_begin[s], row_ptr.data() + row + 1,
                                  col_idx.data() + nnz_begin[s],
                                  values.data() + nnz_begin[s],
                                  labels.data() + row);
      }
    };
    if (pool_ != nullptr) {
      pool_->run(team, decode_stride);
    } else {
      for (std::size_t tid = 0; tid < team; ++tid) decode_stride(tid);
    }
    full = std::make_shared<const sparse::CsrMatrix>(
        sparse::CsrMatrix::from_trusted_parts(
            reader_.dim(), std::move(row_ptr), std::move(col_idx),
            std::move(values), std::move(labels)));
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  materializing_ = false;
  cv_.notify_all();
  if (error) std::rethrow_exception(error);
  materialized_ = std::move(full);
  return *materialized_;
}

}  // namespace isasgd::data
