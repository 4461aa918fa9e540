#include "io/shardpack.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "data/data_source.hpp"
#include "io/crc32.hpp"

namespace isasgd::io {

namespace {

constexpr std::size_t kHeaderFixedBytes =
    4 + 4 +          // magic + version
    6 * 8 + 8 +      // file_bytes, rows, dim, nnz, shard_rows, shard_count,
                     // value kind byte + 7 reserved
    4;               // header CRC
constexpr std::size_t kDirEntryBytes = 5 * 8;

std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 8);
}

void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + size);
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// One shard's encoded payload (sans trailing CRC) plus its sidecar rows.
struct EncodedShard {
  std::vector<std::uint8_t> payload;
  std::vector<double> row_sq_norms;
  double sq_sum = 0;
  std::size_t rows = 0;
  std::size_t nnz = 0;
};

EncodedShard encode_shard(const sparse::CsrMatrix& shard,
                          PackValueKind values) {
  EncodedShard enc;
  enc.rows = shard.rows();
  enc.nnz = shard.nnz();

  // Column varint stream: per row, first column absolute, then gaps − 1.
  std::vector<std::uint8_t> index_stream;
  index_stream.reserve(enc.nnz * 2);
  for (std::size_t r = 0; r < shard.rows(); ++r) {
    const auto row = shard.row(r);
    for (std::size_t j = 0; j < row.indices().size(); ++j) {
      const std::uint64_t col = row.index(j);
      put_varint(index_stream,
                 j == 0 ? col : col - row.index(j - 1) - 1);
    }
  }

  put_u64(enc.payload, index_stream.size());
  put_bytes(enc.payload, index_stream.data(), index_stream.size());
  enc.payload.resize(align8(enc.payload.size()), 0);

  if (values == PackValueKind::kF64) {
    put_bytes(enc.payload, shard.values().data(),
              enc.nnz * sizeof(sparse::value_t));
  } else {
    for (sparse::value_t v : shard.values()) {
      const float f = static_cast<float>(v);
      put_bytes(enc.payload, &f, sizeof f);
    }
  }
  put_bytes(enc.payload, shard.labels().data(),
            enc.rows * sizeof(sparse::value_t));
  for (std::size_t r = 0; r < shard.rows(); ++r) {
    const auto row = shard.row(r);
    put_u32(enc.payload, static_cast<std::uint32_t>(row.indices().size()));
  }

  // Sidecar rows: the exact loaded-path arithmetic, in row order.
  enc.row_sq_norms.reserve(enc.rows);
  for (std::size_t r = 0; r < shard.rows(); ++r) {
    const double sq = shard.row(r).squared_norm();
    enc.row_sq_norms.push_back(sq);
    enc.sq_sum += sq;
  }
  return enc;
}

/// Assembles and atomically writes the pack from pre-encoded shards.
/// `next_shard` yields shards in order and returns false when done —
/// writing needs two passes over the geometry, so shards are encoded once
/// and their payloads kept; peak memory is the encoded file, not the
/// decoded dataset.
void write_pack(const std::string& path, std::size_t rows, std::size_t dim,
                std::size_t nnz, std::size_t nominal_shard_rows,
                PackValueKind values, std::vector<EncodedShard> shards,
                const std::vector<std::size_t>& row_begins) {
  const std::size_t dir_bytes = shards.size() * kDirEntryBytes + 4;
  const std::size_t sidecar_bytes = (rows + shards.size()) * 8 + 4;
  std::size_t offset =
      align8(kHeaderFixedBytes + dir_bytes + sidecar_bytes);

  std::vector<std::uint64_t> block_offsets;
  std::size_t file_bytes = offset;
  for (const EncodedShard& s : shards) {
    block_offsets.push_back(file_bytes);
    file_bytes = align8(file_bytes + s.payload.size() + 4);
  }

  std::vector<std::uint8_t> image;
  image.reserve(file_bytes);
  put_bytes(image, kShardPackMagic, 4);
  put_u32(image, kShardPackVersion);
  const std::size_t header_mark = image.size();
  put_u64(image, file_bytes);
  put_u64(image, rows);
  put_u64(image, dim);
  put_u64(image, nnz);
  put_u64(image, nominal_shard_rows);
  put_u64(image, shards.size());
  image.push_back(static_cast<std::uint8_t>(values));
  image.insert(image.end(), 7, 0);
  put_u32(image, crc32(image.data() + header_mark,
                       image.size() - header_mark));

  const std::size_t dir_mark = image.size();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    put_u64(image, block_offsets[s]);
    put_u64(image, shards[s].payload.size());
    put_u64(image, row_begins[s]);
    put_u64(image, shards[s].rows);
    put_u64(image, shards[s].nnz);
  }
  put_u32(image, crc32(image.data() + dir_mark, image.size() - dir_mark));

  const std::size_t side_mark = image.size();
  for (const EncodedShard& s : shards) {
    put_bytes(image, s.row_sq_norms.data(), s.row_sq_norms.size() * 8);
  }
  for (const EncodedShard& s : shards) {
    put_bytes(image, &s.sq_sum, 8);
  }
  put_u32(image, crc32(image.data() + side_mark, image.size() - side_mark));

  for (std::size_t s = 0; s < shards.size(); ++s) {
    image.resize(block_offsets[s], 0);  // alignment padding
    const std::uint32_t crc =
        crc32(shards[s].payload.data(), shards[s].payload.size());
    put_bytes(image, shards[s].payload.data(), shards[s].payload.size());
    put_u32(image, crc);
    shards[s].payload.clear();
    shards[s].payload.shrink_to_fit();
  }
  image.resize(file_bytes, 0);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ShardPackError("shardpack save: cannot open '" + tmp +
                           "' for writing");
    }
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) {
      throw ShardPackError("shardpack save: short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw ShardPackError("shardpack save: rename '" + tmp + "' -> '" + path +
                         "' failed: " + ec.message());
  }
}

}  // namespace

void write_shardpack(const std::string& path, const sparse::CsrMatrix& data,
                     const ShardPackWriteOptions& options) {
  if (options.shard_rows == 0) {
    throw ShardPackError("shardpack save: shard_rows must be > 0");
  }
  std::vector<EncodedShard> shards;
  std::vector<std::size_t> row_begins;
  for (std::size_t begin = 0; begin < data.rows();
       begin += options.shard_rows) {
    const std::size_t count = std::min(options.shard_rows,
                                       data.rows() - begin);
    row_begins.push_back(begin);
    shards.push_back(encode_shard(
        data::slice_rows(data, begin, count), options.values));
  }
  write_pack(path, data.rows(), data.dim(), data.nnz(), options.shard_rows,
             options.values, std::move(shards), row_begins);
}

void write_shardpack(const std::string& path, const data::DataSource& source,
                     const ShardPackWriteOptions& options) {
  std::vector<EncodedShard> shards;
  std::vector<std::size_t> row_begins;
  std::size_t nominal = options.shard_rows;
  for (std::size_t s = 0; s < source.shard_count(); ++s) {
    const data::ShardPtr shard = source.shard(s);
    row_begins.push_back(shard->row_begin);
    shards.push_back(encode_shard(*shard->matrix, options.values));
    if (s == 0) nominal = shard->matrix->rows();
  }
  write_pack(path, source.rows(), source.dim(), source.nnz(), nominal,
             options.values, std::move(shards), row_begins);
}

ShardPackReader::ShardPackReader(std::string path) : path_(std::move(path)) {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw ShardPackError("shardpack '" + path_ + "': cannot open: " +
                         std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw ShardPackError("shardpack '" + path_ + "': fstat failed: " +
                         std::strerror(err));
  }
  map_bytes_ = static_cast<std::size_t>(st.st_size);
  if (map_bytes_ > 0) {
    void* map = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      throw ShardPackError("shardpack '" + path_ + "': mmap failed: " +
                           std::strerror(errno));
    }
    map_ = static_cast<const std::uint8_t*>(map);
  } else {
    ::close(fd);
  }

  // From here on any defect must unmap before throwing.
  try {
    std::size_t pos = 0;
    auto need = [&](std::size_t bytes, const char* what) {
      if (pos + bytes > map_bytes_) {
        throw ShardPackError("shardpack '" + path_ +
                             "': truncated while reading " + what);
      }
    };
    auto get_u32 = [&](const char* what) {
      need(4, what);
      std::uint32_t v;
      std::memcpy(&v, map_ + pos, 4);
      pos += 4;
      return v;
    };
    auto get_u64 = [&](const char* what) {
      need(8, what);
      std::uint64_t v;
      std::memcpy(&v, map_ + pos, 8);
      pos += 8;
      return v;
    };

    need(4, "magic");
    if (std::memcmp(map_, kShardPackMagic, 4) != 0) {
      throw ShardPackError("shardpack '" + path_ +
                           "': bad magic (not an ISSP shardpack file)");
    }
    pos = 4;
    const std::uint32_t version = get_u32("version");
    if (version != kShardPackVersion) {
      throw ShardPackError(
          "shardpack '" + path_ + "': unsupported format version " +
          std::to_string(version) + " (this build reads version " +
          std::to_string(kShardPackVersion) + ")");
    }

    const std::size_t header_mark = pos;
    const std::uint64_t file_bytes = get_u64("file size");
    rows_ = get_u64("row count");
    dim_ = get_u64("dim");
    nnz_ = get_u64("nnz");
    (void)get_u64("shard rows");
    const std::uint64_t shard_count = get_u64("shard count");
    need(8, "value kind");
    const std::uint8_t kind = map_[pos];
    pos += 8;  // kind + 7 reserved
    if (crc32(map_ + header_mark, pos - header_mark) != get_u32("header CRC")) {
      throw ShardPackError("shardpack '" + path_ +
                           "': header CRC mismatch (corrupted file)");
    }
    if (kind != static_cast<std::uint8_t>(PackValueKind::kF64) &&
        kind != static_cast<std::uint8_t>(PackValueKind::kF32)) {
      throw ShardPackError("shardpack '" + path_ + "': unknown value kind " +
                           std::to_string(kind));
    }
    values_ = static_cast<PackValueKind>(kind);
    if (file_bytes != map_bytes_) {
      throw ShardPackError(
          "shardpack '" + path_ + "': file is " + std::to_string(map_bytes_) +
          " bytes but the header declares " + std::to_string(file_bytes) +
          " (truncated or appended-to)");
    }
    // A corrupted count must read as truncation, not a giant allocation.
    if (shard_count > (map_bytes_ - pos) / kDirEntryBytes) {
      throw ShardPackError("shardpack '" + path_ +
                           "': truncated shard directory (declares " +
                           std::to_string(shard_count) + " shards)");
    }

    const std::size_t dir_mark = pos;
    shards_.resize(shard_count);
    for (ShardMeta& m : shards_) {
      m.block_offset = get_u64("directory entry");
      m.block_bytes = get_u64("directory entry");
      m.row_begin = get_u64("directory entry");
      m.row_count = get_u64("directory entry");
      m.nnz = get_u64("directory entry");
    }
    if (crc32(map_ + dir_mark, pos - dir_mark) != get_u32("directory CRC")) {
      throw ShardPackError("shardpack '" + path_ +
                           "': directory CRC mismatch (corrupted file)");
    }

    const std::size_t side_mark = pos;
    if (rows_ > (map_bytes_ - pos) / 8) {
      throw ShardPackError("shardpack '" + path_ + "': truncated sidecars");
    }
    row_sq_norms_.resize(rows_);
    need(rows_ * 8, "row-norm sidecar");
    std::memcpy(row_sq_norms_.data(), map_ + pos, rows_ * 8);
    pos += rows_ * 8;
    shard_sq_sums_.resize(shard_count);
    need(shard_count * 8, "shard-total sidecar");
    std::memcpy(shard_sq_sums_.data(), map_ + pos, shard_count * 8);
    pos += shard_count * 8;
    if (crc32(map_ + side_mark, pos - side_mark) != get_u32("sidecar CRC")) {
      throw ShardPackError("shardpack '" + path_ +
                           "': sidecar CRC mismatch (corrupted file)");
    }

    // Directory geometry: blocks in bounds, in file order and disjoint,
    // large enough for their declared rows and non-zeros, and row ranges
    // contiguous and summing to the header totals. The size bound keeps
    // every array a decode or materialize() sizes from these counts within
    // a few times the file size.
    const std::size_t value_width = values_ == PackValueKind::kF64 ? 8 : 4;
    std::size_t block_floor = pos;
    std::size_t row_cursor = 0;
    std::size_t nnz_sum = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const ShardMeta& m = shards_[s];
      const auto defect = [&](const char* what) {
        return ShardPackError("shardpack '" + path_ + "': shard " +
                              std::to_string(s) + " " + what +
                              " (corrupted directory)");
      };
      if (m.block_offset < block_floor || m.block_offset % 8 != 0 ||
          m.block_offset > map_bytes_ || m.block_bytes > map_bytes_ ||
          m.block_offset + m.block_bytes + 4 > map_bytes_) {
        throw defect("block out of bounds");
      }
      block_floor = m.block_offset + m.block_bytes + 4;
      // Smallest payload holding row_count rows and nnz non-zeros: the
      // index_bytes word, one varint byte and one value per non-zero, and
      // a label and a row nnz per row, i.e.
      // 8 + nnz·(1 + value width) + row_count·12 ≤ block_bytes.
      if (m.block_bytes < 8 || m.row_count > (m.block_bytes - 8) / 12 ||
          m.nnz > (m.block_bytes - 8 - m.row_count * 12) / (1 + value_width)) {
        throw defect("declares more rows or non-zeros than its block holds");
      }
      if (m.row_begin != row_cursor) {
        throw ShardPackError("shardpack '" + path_ + "': shard " +
                             std::to_string(s) +
                             " row range is not contiguous");
      }
      row_cursor += m.row_count;
      nnz_sum += m.nnz;
    }
    if (row_cursor != rows_ || nnz_sum != nnz_) {
      throw ShardPackError("shardpack '" + path_ +
                           "': directory totals disagree with the header");
    }
    crc_checked_.assign(shards_.size(), false);
  } catch (...) {
    if (map_) ::munmap(const_cast<std::uint8_t*>(map_), map_bytes_);
    map_ = nullptr;
    throw;
  }
}

ShardPackReader::~ShardPackReader() {
  if (map_) ::munmap(const_cast<std::uint8_t*>(map_), map_bytes_);
}

void ShardPackReader::verify_block_crc(std::size_t s) const {
  {
    const std::lock_guard<std::mutex> lock(crc_mu_);
    if (crc_checked_[s]) return;
  }
  const ShardMeta& m = shards_[s];
  const std::uint32_t computed = crc32(block(s), m.block_bytes);
  std::uint32_t stored;
  std::memcpy(&stored, block(s) + m.block_bytes, 4);
  if (computed != stored) {
    throw ShardPackError("shardpack '" + path_ + "': CRC mismatch in shard " +
                         std::to_string(s) + " (corrupted file)");
  }
  const std::lock_guard<std::mutex> lock(crc_mu_);
  crc_checked_[s] = true;
}

const ShardPackReader::ShardMeta& ShardPackReader::meta(std::size_t s) const {
  if (s >= shards_.size()) {
    throw ShardPackError("shardpack '" + path_ + "': shard ordinal " +
                         std::to_string(s) + " of " +
                         std::to_string(shards_.size()));
  }
  return shards_[s];
}

void ShardPackReader::decode_shard(
    std::size_t s, sparse::Array<std::size_t>& row_ptr,
    sparse::Array<sparse::index_t>& col_idx,
    sparse::Array<sparse::value_t>& values,
    sparse::Array<sparse::value_t>& labels) const {
  const ShardMeta& m = meta(s);
  row_ptr.resize(m.row_count + 1);
  col_idx.resize(m.nnz);
  values.resize(m.nnz);
  labels.resize(m.row_count);
  row_ptr[0] = 0;
  decode_shard_into(s, 0, row_ptr.data() + 1, col_idx.data(), values.data(),
                    labels.data());
}

void ShardPackReader::decode_shard_into(std::size_t s, std::size_t nnz_base,
                                        std::size_t* row_ends,
                                        sparse::index_t* col_idx,
                                        sparse::value_t* values,
                                        sparse::value_t* labels) const {
  const ShardMeta& m = meta(s);
  verify_block_crc(s);
  const std::uint8_t* base = block(s);

  std::uint64_t index_bytes;
  std::memcpy(&index_bytes, base, 8);
  const std::size_t values_off = align8(8 + index_bytes);
  const std::size_t value_width = values_ == PackValueKind::kF64 ? 8 : 4;
  const std::size_t labels_off = values_off + m.nnz * value_width;
  const std::size_t rownnz_off = labels_off + m.row_count * 8;
  if (index_bytes > m.block_bytes ||
      rownnz_off + m.row_count * 4 != m.block_bytes) {
    throw ShardPackError("shardpack '" + path_ + "': shard " +
                         std::to_string(s) +
                         " layout disagrees with its directory entry");
  }

  // Row ends from the per-row nnz column, checked against the directory
  // before any column is written: every later write then lands inside the
  // shard's nnz slice.
  std::size_t row_end = 0;
  for (std::size_t r = 0; r < m.row_count; ++r) {
    std::uint32_t n;
    std::memcpy(&n, base + rownnz_off + r * 4, 4);
    row_end += n;
    row_ends[r] = nnz_base + row_end;
  }
  if (row_end != m.nnz) {
    throw ShardPackError("shardpack '" + path_ + "': shard " +
                         std::to_string(s) +
                         " row nnz column disagrees with its directory entry");
  }

  // Column indices from the delta varint stream. Strict in-row increase is
  // guaranteed by construction (gap - 1 encoding); only bounds need checks.
  // This loop is the whole decode cost on the fault path. Delta gaps for a
  // sparse row over a large dim land almost entirely in the 1- and 2-byte
  // encodings (gap < 2^14), so both get a branch-light fast path; the
  // per-byte end-checked loop only runs for 3+-byte varints or within two
  // bytes of the stream end.
  const std::uint8_t* in = base + 8;
  const std::uint8_t* const end = in + index_bytes;
  const auto malformed = [&]() -> ShardPackError {
    return ShardPackError("shardpack '" + path_ + "': shard " +
                          std::to_string(s) +
                          " has a malformed column index stream");
  };
  const auto out_of_range = [&](std::uint64_t col) -> ShardPackError {
    return ShardPackError("shardpack '" + path_ + "': shard " +
                          std::to_string(s) + " column index " +
                          std::to_string(col) + " out of range (dim " +
                          std::to_string(dim_) + ")");
  };
  const auto read_varint = [&](const std::uint8_t*& p) -> std::uint64_t {
    if (end - p >= 2) [[likely]] {
      const std::uint64_t b0 = p[0];
      if (b0 < 0x80) {
        p += 1;
        return b0;
      }
      const std::uint64_t b1 = p[1];
      if (b1 < 0x80) {
        p += 2;
        return (b0 & 0x7F) | (b1 << 7);
      }
    }
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (p == end || shift > 63) throw malformed();
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) return v;
      shift += 7;
    }
  };
  std::size_t jb = 0;
  for (std::size_t r = 0; r < m.row_count; ++r) {
    const std::size_t je = row_ends[r] - nnz_base;
    if (jb == je) continue;
    std::uint64_t col = read_varint(in);  // first column is absolute
    if (col >= dim_) throw out_of_range(col);
    col_idx[jb] = static_cast<sparse::index_t>(col);
    for (std::size_t j = jb + 1; j < je; ++j) {
      col += read_varint(in) + 1;
      if (col >= dim_) throw out_of_range(col);
      col_idx[j] = static_cast<sparse::index_t>(col);
    }
    jb = je;
  }
  if (in != end) {
    throw ShardPackError("shardpack '" + path_ + "': shard " +
                         std::to_string(s) +
                         " column index stream has trailing bytes");
  }

  // An empty slice may be a null pointer, which memcpy must not be given.
  if (values_ == PackValueKind::kF64) {
    if (m.nnz != 0) std::memcpy(values, base + values_off, m.nnz * 8);
  } else {
    for (std::size_t j = 0; j < m.nnz; ++j) {
      float f;
      std::memcpy(&f, base + values_off + j * 4, 4);
      values[j] = static_cast<sparse::value_t>(f);
    }
  }
  if (m.row_count != 0) {
    std::memcpy(labels, base + labels_off, m.row_count * 8);
  }
}

bool is_shardpack_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4] = {};
  in.read(magic, sizeof magic);
  return static_cast<std::size_t>(in.gcount()) == sizeof magic &&
         std::memcmp(magic, kShardPackMagic, sizeof magic) == 0;
}

}  // namespace isasgd::io
