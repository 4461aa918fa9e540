// Seeded mutation fuzzing of the ISSP reader, in the style of
// frame_fuzz_test: small 3-shard packs (f64 and f32 values, an empty row, a
// shard with no non-zeros) get bytes flipped, truncated, duplicated or
// spliced in from the other pack, and u32/u64 fields set to extremes. Each
// result is opened as a PackedSource, materialized on a pool, and faulted
// shard by shard. The contract: every input ends in io::ShardPackError or
// in a matrix bit-equal to the source (bytes outside every CRC, such as
// alignment padding, may legitimately change nothing), never a crash or
// another exception type, and an open that succeeds has bounded its counts
// by the file size. Half the inputs are then resealed — every CRC
// recomputed over the mutated bytes, as a crafted file would carry — so
// the checks behind the CRCs are fuzzed too: those inputs may decode to a
// different matrix, but it must be a valid CSR matrix, and the shard path
// must agree with materialize() bit for bit. No external fuzzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/data_source.hpp"
#include "data/packed_source.hpp"
#include "io/crc32.hpp"
#include "io/shardpack.hpp"
#include "sparse/csr_builder.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace isasgd {
namespace {

using Bytes = std::vector<char>;

// Byte offsets of the format (io/shardpack.hpp): header fields, header CRC,
// and the 40-byte directory entries that follow it.
constexpr std::size_t kRowsAt = 16;
constexpr std::size_t kShardCountAt = 48;
constexpr std::size_t kHeaderCrcAt = 64;
constexpr std::size_t kDirAt = 68;
constexpr std::size_t kDirEntryBytes = 40;

/// 10 rows over 300 columns in shards of 4: row 1 is empty, and shard 2
/// (rows 8 and 9) holds no non-zeros. Gaps past 127 need 2-byte varints;
/// most values do not survive a float round trip.
sparse::CsrMatrix fuzz_source() {
  util::Rng rng(23);
  sparse::CsrBuilder builder(300);
  for (std::size_t r = 0; r < 10; ++r) {
    std::vector<sparse::index_t> idx;
    std::vector<sparse::value_t> val;
    if (r != 1 && r < 8) {
      for (sparse::index_t c = static_cast<sparse::index_t>(r);
           c < 300; c += 1 + static_cast<sparse::index_t>(
                                  util::uniform_index(rng, 160))) {
        idx.push_back(c);
        val.push_back(util::normal_double(rng));
      }
    }
    builder.add_row(idx, val, r % 3 == 0 ? -1.0 : 1.0);
  }
  return builder.build();
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_u64(const Bytes& b, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + at, 8);
  return v;
}

/// One pack's bytes and the offsets of its integer fields.
struct Pack {
  Bytes bytes;
  std::vector<std::size_t> u64_fields;
  std::vector<std::size_t> u32_fields;
};

/// Writes `source` as a pack and records where its fields are: every
/// header and directory word, every CRC, and each block's index_bytes word
/// and per-row nnz column.
Pack make_pack(const sparse::CsrMatrix& source, io::PackValueKind kind,
               const std::string& path) {
  io::write_shardpack(path, source, {.shard_rows = 4, .values = kind});
  Pack p;
  p.bytes = slurp(path);
  const io::ShardPackReader reader(path);
  const std::size_t shards = reader.shard_count();
  for (std::size_t at = 8; at < kHeaderCrcAt; at += 8) {
    p.u64_fields.push_back(at);
  }
  p.u32_fields.push_back(4);  // version
  p.u32_fields.push_back(kHeaderCrcAt);
  const std::size_t dir_end = kDirAt + shards * kDirEntryBytes;
  for (std::size_t at = kDirAt; at < dir_end; at += 8) {
    p.u64_fields.push_back(at);
  }
  p.u32_fields.push_back(dir_end);
  const std::size_t side_end = dir_end + 4 + (source.rows() + shards) * 8;
  p.u32_fields.push_back(side_end);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t entry = kDirAt + s * kDirEntryBytes;
    const std::size_t block = get_u64(p.bytes, entry);
    const std::size_t block_end = block + get_u64(p.bytes, entry + 8);
    p.u64_fields.push_back(block);
    for (std::size_t r = 0; r < reader.shard_rows(s); ++r) {
      p.u32_fields.push_back(block_end - 4 * (reader.shard_rows(s) - r));
    }
    p.u32_fields.push_back(block_end);
  }
  return p;
}

void mutate(util::Rng& rng, const Pack& pack, Bytes& b, const Bytes& other) {
  const std::size_t at = util::uniform_index(rng, b.size());
  switch (util::uniform_index(rng, 5)) {
    case 0:  // flip bits of one byte
      b[at] = static_cast<char>(b[at] ^ (1 + util::uniform_index(rng, 255)));
      break;
    case 1:  // truncate
      b.resize(at);
      break;
    case 2: {  // duplicate a range in place
      const std::size_t len = std::min<std::size_t>(
          1 + util::uniform_index(rng, 64), b.size() - at);
      const Bytes range(b.begin() + static_cast<long>(at),
                        b.begin() + static_cast<long>(at + len));
      b.insert(b.begin() + static_cast<long>(at), range.begin(), range.end());
      break;
    }
    case 3: {  // splice in a range of the other pack
      const std::size_t from = util::uniform_index(rng, other.size());
      const std::size_t len = std::min<std::size_t>(
          1 + util::uniform_index(rng, 256), other.size() - from);
      b.insert(b.begin() + static_cast<long>(at),
               other.begin() + static_cast<long>(from),
               other.begin() + static_cast<long>(from + len));
      break;
    }
    default: {  // set an integer field to an extreme
      const bool wide = util::uniform_index(rng, 2) == 0;
      const std::vector<std::size_t>& fields =
          wide ? pack.u64_fields : pack.u32_fields;
      const std::size_t field = fields[util::uniform_index(rng, fields.size())];
      const std::uint64_t n = b.size();
      const std::uint64_t extremes[] = {
          0, 1, 7, 8, n - 8, n, n + 8, std::uint64_t{1} << 31,
          (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 63,
          ~std::uint64_t{0}, ~std::uint64_t{0} - 7};
      const std::uint64_t v =
          extremes[util::uniform_index(rng, std::size(extremes))];
      const std::size_t width = wide ? 8 : 4;
      if (field + width <= b.size()) std::memcpy(b.data() + field, &v, width);
      break;
    }
  }
}

/// Recomputes every CRC the mutated bytes' own geometry declares, where it
/// fits in the file, as a crafted pack would carry them.
void reseal(Bytes& b) {
  const auto seal = [&](std::size_t begin, std::size_t end) {
    const std::uint32_t crc = io::crc32(b.data() + begin, end - begin);
    std::memcpy(b.data() + end, &crc, 4);
  };
  if (b.size() < kDirAt) return;
  seal(8, kHeaderCrcAt);
  const std::uint64_t shards = get_u64(b, kShardCountAt);
  const std::uint64_t rows = get_u64(b, kRowsAt);
  if (shards > b.size() / kDirEntryBytes || rows > b.size() / 8) return;
  const std::size_t dir_end = kDirAt + shards * kDirEntryBytes;
  if (dir_end + 4 > b.size()) return;
  seal(kDirAt, dir_end);
  const std::size_t side_end = dir_end + 4 + (rows + shards) * 8;
  if (side_end + 4 > b.size()) return;
  seal(dir_end + 4, side_end);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::uint64_t offset = get_u64(b, kDirAt + s * kDirEntryBytes);
    const std::uint64_t bytes = get_u64(b, kDirAt + s * kDirEntryBytes + 8);
    if (offset <= b.size() && bytes <= b.size() &&
        offset + bytes + 4 <= b.size()) {
      seal(offset, offset + bytes);
    }
  }
}

bool bit_equal(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
  const auto same = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  return a.dim() == b.dim() && same(a.row_ptr(), b.row_ptr()) &&
         same(a.col_idx(), b.col_idx()) && same(a.values(), b.values()) &&
         same(a.labels(), b.labels());
}

enum class Outcome { kError, kSource, kOther };

/// Open → materialize() → shard(s) for every s, with the checks every
/// input must pass whatever its outcome.
Outcome run(const std::string& path, const sparse::CsrMatrix& source,
            util::ThreadPool& pool) {
  const std::size_t file_bytes = slurp(path).size();
  try {
    const data::PackedSource pack(path, {}, &pool);
    // Every array materialize() or a fault sizes comes from these counts.
    EXPECT_LE(pack.rows() * 12 + pack.nnz() * 5, file_bytes);
    const sparse::CsrMatrix& whole = pack.materialize();
    // The trusted decode must still produce what the validating
    // constructor accepts.
    EXPECT_NO_THROW((void)sparse::CsrMatrix(whole.dim(), whole.row_ptr(),
                                            whole.col_idx(), whole.values(),
                                            whole.labels()));
    for (std::size_t s = 0; s < pack.shard_count(); ++s) {
      const data::ShardPtr shard = pack.shard(s);
      EXPECT_TRUE(bit_equal(*shard->matrix,
                            data::slice_rows(whole, pack.shard_begin(s),
                                             pack.shard_rows(s))))
          << "shard " << s << " disagrees with materialize()";
    }
    return bit_equal(whole, source) ? Outcome::kSource : Outcome::kOther;
  } catch (const io::ShardPackError&) {
    return Outcome::kError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
    return Outcome::kError;
  }
}

TEST(ShardPackFuzz, MutatedPacksFailTypedOrDecodeExactly) {
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kError);  // materialize() warns
  util::ThreadPool pool(2);
  const sparse::CsrMatrix source = fuzz_source();
  const std::string path = ::testing::TempDir() + "fuzz.issp";
  const Pack f64 = make_pack(source, io::PackValueKind::kF64, path);
  const Pack f32 = make_pack(source, io::PackValueKind::kF32, path);
  // What each clean pack decodes to: the source itself for f64, and the
  // source's values through float for f32.
  spit(path, f64.bytes);
  ASSERT_EQ(run(path, source, pool), Outcome::kSource);
  sparse::CsrMatrix f32_source;
  {
    spit(path, f32.bytes);
    const data::PackedSource clean(path, {}, &pool);
    f32_source = clean.materialize();
  }

  util::Rng rng(20261019);
  std::size_t tally[2][3] = {};  // [resealed][outcome]
  for (int trial = 0; trial < 1600; ++trial) {
    const bool f32_pack = trial % 2 == 1;
    const Pack& pack = f32_pack ? f32 : f64;
    const sparse::CsrMatrix& expected = f32_pack ? f32_source : source;
    Bytes bytes = pack.bytes;
    const std::size_t edits = 1 + util::uniform_index(rng, 3);
    for (std::size_t e = 0; e < edits && !bytes.empty(); ++e) {
      mutate(rng, pack, bytes, f32_pack ? f64.bytes : f32.bytes);
    }
    const bool resealed = util::uniform_index(rng, 2) == 0;
    if (resealed) reseal(bytes);
    spit(path, bytes);
    const Outcome outcome = run(path, expected, pool);
    ++tally[resealed][static_cast<int>(outcome)];
    if (!resealed) {
      // CRC-guarded bytes cannot change the result: a typed error or the
      // source itself.
      EXPECT_NE(outcome, Outcome::kOther) << "trial " << trial;
    }
    if (::testing::Test::HasFailure()) {
      spit(::testing::TempDir() + "fuzz-failing.issp", bytes);
      FAIL() << "trial " << trial << " failed; input kept as fuzz-failing.issp";
    }
  }
  std::remove(path.c_str());
  util::set_log_level(level);
  // Every outcome must have been reached. Few mutations land only in
  // alignment padding, so exact decodes of unsealed inputs are rare.
  EXPECT_GT(tally[0][static_cast<int>(Outcome::kError)], 600u);
  EXPECT_GT(tally[0][static_cast<int>(Outcome::kSource)], 0u);
  EXPECT_GT(tally[1][static_cast<int>(Outcome::kError)], 600u);
  EXPECT_GT(tally[1][static_cast<int>(Outcome::kSource)], 10u);
  EXPECT_GT(tally[1][static_cast<int>(Outcome::kOther)], 10u);
  std::printf("unsealed: %zu errors, %zu exact; resealed: %zu errors, "
              "%zu exact, %zu other\n",
              tally[0][0], tally[0][1], tally[1][0], tally[1][1], tally[1][2]);
}

}  // namespace
}  // namespace isasgd
