// io::shardpack format: round-trip fidelity, sidecar exactness, and defect
// handling in the checkpoint_test mould — a pack with any flipped byte,
// truncated prefix, wrong magic, future version, or a CRC-valid directory
// whose counts its blocks cannot hold must be rejected with a typed
// ShardPackError naming the path and the defect, never silently served in
// part. Plus the values of io::crc32, which every pack and checkpoint on
// disk depends on, and the PrefetchAutotuner policy, driven directly with
// synthetic counter deltas.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "data/shard_cache.hpp"
#include "data/synthetic.hpp"
#include "io/crc32.hpp"
#include "io/shardpack.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dispatch.hpp"

namespace isasgd {
namespace {

sparse::CsrMatrix small_data(std::size_t rows = 300, std::size_t dim = 64) {
  data::SyntheticSpec spec;
  spec.rows = rows;
  spec.dim = dim;
  spec.mean_row_nnz = 7;
  spec.seed = 11;
  return data::generate(spec);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Decodes every shard of `reader` and compares against `expected` bit for
/// bit (f64 packs are lossless by contract).
void expect_pack_equals(const io::ShardPackReader& reader,
                        const sparse::CsrMatrix& expected) {
  ASSERT_EQ(reader.rows(), expected.rows());
  ASSERT_EQ(reader.dim(), expected.dim());
  ASSERT_EQ(reader.nnz(), expected.nnz());
  sparse::Array<std::size_t> row_ptr;
  sparse::Array<sparse::index_t> col_idx;
  sparse::Array<sparse::value_t> values;
  sparse::Array<sparse::value_t> labels;
  for (std::size_t s = 0; s < reader.shard_count(); ++s) {
    reader.decode_shard(s, row_ptr, col_idx, values, labels);
    const std::size_t base = reader.shard_begin(s);
    ASSERT_EQ(row_ptr.size(), reader.shard_rows(s) + 1);
    for (std::size_t r = 0; r < reader.shard_rows(s); ++r) {
      const auto want = expected.row(base + r);
      ASSERT_EQ(row_ptr[r + 1] - row_ptr[r], want.indices().size())
          << "row " << base + r;
      for (std::size_t k = 0; k < want.indices().size(); ++k) {
        EXPECT_EQ(col_idx[row_ptr[r] + k], want.index(k));
        EXPECT_EQ(values[row_ptr[r] + k], want.value(k));
      }
      EXPECT_EQ(labels[r], expected.label(base + r));
    }
  }
}

TEST(ShardPackFormat, RoundTripIsBitExact) {
  const sparse::CsrMatrix data = small_data();
  const std::string path = temp_path("roundtrip.issp");
  io::ShardPackWriteOptions opt;
  opt.shard_rows = 64;  // uneven tail shard on purpose (300 % 64 != 0)
  io::write_shardpack(path, data, opt);
  const io::ShardPackReader reader(path);
  EXPECT_EQ(reader.shard_count(), (data.rows() + 63) / 64);
  expect_pack_equals(reader, data);
  std::remove(path.c_str());
}

TEST(ShardPackFormat, SidecarStoresExactSquaredNorms) {
  const sparse::CsrMatrix data = small_data();
  const std::string path = temp_path("sidecar.issp");
  io::write_shardpack(path, data, {.shard_rows = 50});
  const io::ShardPackReader reader(path);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    // Bitwise equality, not near: the sidecar is the zero-pass replacement
    // for this exact computation.
    EXPECT_EQ(reader.row_squared_norm(i), data.row(i).squared_norm())
        << "row " << i;
  }
  for (std::size_t s = 0; s < reader.shard_count(); ++s) {
    double sum = 0;
    for (std::size_t r = 0; r < reader.shard_rows(s); ++r) {
      sum += data.row(reader.shard_begin(s) + r).squared_norm();
    }
    EXPECT_EQ(reader.shard_sq_norm_sum(s), sum) << "shard " << s;
  }
  std::remove(path.c_str());
}

TEST(ShardPackFormat, F32PackRoundTripsThroughFloat) {
  const sparse::CsrMatrix data = small_data(120, 40);
  const std::string path = temp_path("f32.issp");
  io::write_shardpack(path, data,
                      {.shard_rows = 48, .values = io::PackValueKind::kF32});
  const io::ShardPackReader reader(path);
  EXPECT_EQ(reader.value_kind(), io::PackValueKind::kF32);
  sparse::Array<std::size_t> row_ptr;
  sparse::Array<sparse::index_t> col_idx;
  sparse::Array<sparse::value_t> values;
  sparse::Array<sparse::value_t> labels;
  for (std::size_t s = 0; s < reader.shard_count(); ++s) {
    reader.decode_shard(s, row_ptr, col_idx, values, labels);
    const std::size_t base = reader.shard_begin(s);
    for (std::size_t r = 0; r < reader.shard_rows(s); ++r) {
      const auto want = data.row(base + r);
      for (std::size_t k = 0; k < want.indices().size(); ++k) {
        // The decode widens float back to double: exact float round-trip.
        EXPECT_EQ(values[row_ptr[r] + k],
                  static_cast<double>(static_cast<float>(want.value(k))));
      }
      // Labels stay f64 in every pack kind.
      EXPECT_EQ(labels[r], data.label(base + r));
    }
  }
  std::remove(path.c_str());
}

TEST(ShardPackFormat, SniffDetectsPacks) {
  const sparse::CsrMatrix data = small_data(40, 16);
  const std::string pack = temp_path("sniff.issp");
  const std::string text = temp_path("sniff.txt");
  io::write_shardpack(pack, data);
  spit(text, {'1', ' ', '3', ':', '1', '\n'});
  EXPECT_TRUE(io::is_shardpack_file(pack));
  EXPECT_FALSE(io::is_shardpack_file(text));
  EXPECT_FALSE(io::is_shardpack_file("/nonexistent/nowhere.issp"));
  std::remove(pack.c_str());
  std::remove(text.c_str());
}

TEST(ShardPackFormat, MissingFileNamesThePath) {
  try {
    const io::ShardPackReader reader("/nonexistent/nowhere.issp");
    FAIL() << "expected ShardPackError";
  } catch (const io::ShardPackError& e) {
    EXPECT_NE(std::string(e.what()).find("nowhere.issp"), std::string::npos);
  }
}

TEST(ShardPackFormat, WrongMagicIsRefused) {
  const std::string path = temp_path("magic.issp");
  io::write_shardpack(path, small_data(60, 20));
  std::vector<char> bytes = slurp(path);
  bytes[0] = 'X';
  spit(path, bytes);
  EXPECT_THROW((void)io::ShardPackReader(path), io::ShardPackError);
  std::remove(path.c_str());
}

TEST(ShardPackFormat, FutureVersionIsRefused) {
  const std::string path = temp_path("version.issp");
  io::write_shardpack(path, small_data(60, 20));
  std::vector<char> bytes = slurp(path);
  bytes[4] = 99;  // little-endian u32 version right after the magic
  spit(path, bytes);
  try {
    const io::ShardPackReader reader(path);
    FAIL() << "expected ShardPackError";
  } catch (const io::ShardPackError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ShardPackFormat, FlippedMetadataByteIsRejectedAtOpen) {
  const std::string path = temp_path("metacorrupt.issp");
  io::write_shardpack(path, small_data(90, 24), {.shard_rows = 32});
  const std::vector<char> pristine = slurp(path);
  // Every byte of the metadata region (header + directory + sidecars) is
  // CRC-covered; flip a few spread across it.
  for (const std::size_t at : {std::size_t{9}, std::size_t{40},
                               std::size_t{80}, std::size_t{160}}) {
    ASSERT_LT(at, pristine.size());
    std::vector<char> bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
    spit(path, bytes);
    EXPECT_THROW((void)io::ShardPackReader(path), io::ShardPackError)
        << "flipped metadata byte " << at << " was accepted";
  }
  std::remove(path.c_str());
}

TEST(ShardPackFormat, FlippedBlockByteIsRejectedAtDecode) {
  const std::string path = temp_path("blockcorrupt.issp");
  const sparse::CsrMatrix data = small_data(90, 24);
  io::write_shardpack(path, data, {.shard_rows = 32});
  std::vector<char> bytes = slurp(path);
  // Flip a byte deep in the last shard's payload: open-time metadata checks
  // must still pass, the per-shard CRC must catch it on first decode.
  bytes[bytes.size() - 16] =
      static_cast<char>(bytes[bytes.size() - 16] ^ 0x40);
  spit(path, bytes);
  const io::ShardPackReader reader(path);
  sparse::Array<std::size_t> row_ptr;
  sparse::Array<sparse::index_t> col_idx;
  sparse::Array<sparse::value_t> values;
  sparse::Array<sparse::value_t> labels;
  // Clean shards still decode.
  reader.decode_shard(0, row_ptr, col_idx, values, labels);
  try {
    reader.decode_shard(reader.shard_count() - 1, row_ptr, col_idx, values,
                        labels);
    FAIL() << "expected ShardPackError";
  } catch (const io::ShardPackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(ShardPackFormat, TruncationIsRejectedAtEveryLength) {
  const std::string path = temp_path("truncated.issp");
  io::write_shardpack(path, small_data(90, 24), {.shard_rows = 32});
  const std::vector<char> bytes = slurp(path);
  // A kill mid-copy can leave any prefix; every one must fail at open (a
  // stride keeps the loop fast, the endpoints cover the degenerate cases).
  for (std::size_t keep = 0; keep < bytes.size();
       keep += (keep < 80 ? 1 : 37)) {
    spit(path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    EXPECT_THROW((void)io::ShardPackReader(path), io::ShardPackError)
        << "prefix of " << keep << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(ShardPackFormat, TrailingGarbageIsRejected) {
  const std::string path = temp_path("trailing.issp");
  io::write_shardpack(path, small_data(60, 20));
  std::vector<char> bytes = slurp(path);
  bytes.push_back('\0');
  spit(path, bytes);
  // file_bytes in the header pins the exact length; longer is as corrupt
  // as shorter.
  EXPECT_THROW((void)io::ShardPackReader(path), io::ShardPackError);
  std::remove(path.c_str());
}

/// A CRC-valid pack whose directory declares counts its blocks cannot
/// hold, or blocks outside their place, must fail at open: decode sizes
/// its arrays from those counts.
TEST(ShardPackFormat, DirectoryGeometryIsBoundedAtOpen) {
  const std::string path = temp_path("geometry.issp");
  io::write_shardpack(path, small_data(8, 16), {.shard_rows = 4});
  const std::vector<char> pristine = slurp(path);
  // Offsets: header fields from byte 8 (nnz at 32), header CRC at 64; the
  // directory's 40-byte entries from 68 (block_offset, block_bytes,
  // row_begin, row_count, nnz), directory CRC after the two entries.
  constexpr std::size_t kHeaderNnz = 32;
  constexpr std::size_t kHeaderCrc = 64;
  constexpr std::size_t kDir = 68;
  constexpr std::size_t kDirCrc = kDir + 2 * 40;
  const auto get = [](const std::vector<char>& b, std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, b.data() + at, 8);
    return v;
  };
  const auto set = [](std::vector<char>& b, std::size_t at, std::uint64_t v) {
    std::memcpy(b.data() + at, &v, 8);
  };
  const auto reseal = [&](std::vector<char>& b) {
    const std::uint32_t header = io::crc32(b.data() + 8, kHeaderCrc - 8);
    std::memcpy(b.data() + kHeaderCrc, &header, 4);
    const std::uint32_t dir = io::crc32(b.data() + kDir, kDirCrc - kDir);
    std::memcpy(b.data() + kDirCrc, &dir, 4);
  };
  {
    // The offsets above are this format's; a resealed, untouched copy
    // must still open.
    std::vector<char> bytes = pristine;
    reseal(bytes);
    EXPECT_EQ(bytes, pristine);
    ASSERT_EQ(get(bytes, kHeaderNnz), io::ShardPackReader(path).nnz());
  }
  // Inflated nnz, kept consistent between the header and shard 0.
  for (const std::uint64_t extra : {std::uint64_t{1} << 30,
                                    std::uint64_t{1} << 34}) {
    std::vector<char> bytes = pristine;
    set(bytes, kHeaderNnz, get(bytes, kHeaderNnz) + extra);
    set(bytes, kDir + 32, get(bytes, kDir + 32) + extra);
    reseal(bytes);
    spit(path, bytes);
    EXPECT_THROW((void)io::ShardPackReader(path), io::ShardPackError)
        << "nnz raised by " << extra;
  }
  const std::uint64_t block0 = get(pristine, kDir);
  const std::uint64_t block1 = get(pristine, kDir + 40);
  const std::vector<std::pair<std::size_t, std::uint64_t>> tamperings = {
      {kDir + 40, block0},              // shard 1 overlaps shard 0
      {kDir, block1},                   // shard 0 after shard 1
      {kDir + 40, ~std::uint64_t{7}},   // offset + size wraps past 2^64
  };
  for (const auto& [at, value] : tamperings) {
    std::vector<char> bytes = pristine;
    set(bytes, at, value);
    reseal(bytes);
    spit(path, bytes);
    EXPECT_THROW((void)io::ShardPackReader(path), io::ShardPackError)
        << "directory byte " << at << " set to " << value;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// io::crc32: the reflected 0xEDB88320 CRC-32. Writers and readers share the
// function, so round trips cannot catch a wrong but self-consistent
// implementation; these pin its values, under each of its two bodies. The
// kernel backend selects the body: scalar runs the table loop, any other
// backend the folded body where the CPU has PCLMULQDQ.

namespace k = sparse::kernels;

enum class CrcPath { kTable, kFolded };

const char* path_name(CrcPath path) {
  return path == CrcPath::kTable ? "Table" : "Folded";
}

void PrintTo(CrcPath path, std::ostream* os) { *os << path_name(path); }

/// Pins the kernel backend that selects the path under test; skips when
/// this host has no folded body. Restores the previous backend after.
class Crc32 : public ::testing::TestWithParam<CrcPath> {
 protected:
  void SetUp() override { select(GetParam()); }
  void TearDown() override { k::set_backend(previous_); }

  void select(CrcPath path) {
    if (path == CrcPath::kTable) {
      ASSERT_TRUE(k::set_backend(k::Backend::kScalar));
      ASSERT_FALSE(io::crc32_folded());
      return;
    }
    const std::vector<k::Backend> menu = k::available_backends();
    if (menu.back() == k::Backend::kScalar) {
      GTEST_SKIP() << "no vector kernel backend, so no folded CRC path";
    }
    ASSERT_TRUE(k::set_backend(menu.back()));
    if (!io::crc32_folded()) GTEST_SKIP() << "no PCLMULQDQ on this host";
  }

 private:
  k::Backend previous_ = k::active_backend();
};

INSTANTIATE_TEST_SUITE_P(
    Paths, Crc32, ::testing::Values(CrcPath::kTable, CrcPath::kFolded),
    [](const ::testing::TestParamInfo<CrcPath>& info) {
      return std::string(path_name(info.param));
    });

/// Bitwise reference: eight shift-and-xor steps per byte, no tables.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n,
                              std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

/// Deterministic filler bytes (an LCG's top byte).
std::vector<unsigned char> crc_input(std::size_t size) {
  std::vector<unsigned char> buf(size);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return buf;
}

TEST_P(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(io::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(io::crc32(check, 0), 0u);
  // Long enough for the folded body: 64 ASCII '1's, then 100 zero bytes.
  const std::string ones(64, '1');
  EXPECT_EQ(io::crc32(ones.data(), ones.size()),
            reference_crc32(reinterpret_cast<const unsigned char*>(
                                ones.data()), ones.size(), 0));
  const std::vector<unsigned char> zeros(100, 0);
  EXPECT_EQ(io::crc32(zeros.data(), zeros.size()),
            reference_crc32(zeros.data(), zeros.size(), 0));
}

TEST_P(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length to 1 KiB, then a packed-ooc shard's 612 KB and 1 MiB + 3,
  // at every offset within 16 bytes: the folded body loads 16 bytes at a
  // time, unaligned.
  std::vector<std::size_t> lengths(1025);
  for (std::size_t n = 0; n <= 1024; ++n) lengths[n] = n;
  lengths.push_back(612 * 1024);
  lengths.push_back((std::size_t{1} << 20) + 3);
  const std::vector<unsigned char> buf = crc_input(lengths.back() + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (const std::size_t n : lengths) {
      const std::uint32_t want = reference_crc32(p, n, 0);
      ASSERT_EQ(io::crc32(p, n), want) << "offset " << offset << " length " << n;
      // Split in two and chained through the seed: one stream. The cuts
      // fall just short of, at, and just past the first 64-byte block,
      // inside the second, and at an arbitrary point.
      for (const std::size_t cut : {std::size_t{63}, std::size_t{64},
                                    std::size_t{65}, std::size_t{100},
                                    n * 3 / 7}) {
        if (cut > n) continue;
        ASSERT_EQ(io::crc32(p + cut, n - cut, io::crc32(p, cut)), want)
            << "offset " << offset << " length " << n << " cut " << cut;
      }
    }
  }
}

/// A pack written under one CRC body opens and decodes under the other:
/// both compute one function, so every existing file stays readable.
TEST_P(Crc32, PackWrittenUnderTheOtherPathOpensAndDecodes) {
  const CrcPath other =
      GetParam() == CrcPath::kTable ? CrcPath::kFolded : CrcPath::kTable;
  const sparse::CsrMatrix data = small_data(300, 64);
  const std::string path = temp_path("crosspath.issp");
  select(other);
  if (IsSkipped()) return;
  io::write_shardpack(path, data, {.shard_rows = 64});
  select(GetParam());
  const io::ShardPackReader reader(path);
  expect_pack_equals(reader, data);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// PrefetchAutotuner policy, driven with synthetic per-epoch deltas.

data::CacheStats delta(std::uint64_t hits, std::uint64_t misses,
                       std::uint64_t issued, std::uint64_t races,
                       std::uint64_t wasted) {
  data::CacheStats d{};
  d.hits = hits;
  d.misses = misses;
  d.prefetch_issued = issued;
  d.prefetch_races = races;
  d.prefetch_wasted = wasted;
  return d;
}

/// `d` with each of its races waiting `wait_ns` and each of its loads (one
/// per miss and per prefetch) taking `load_ns`.
data::CacheStats timed(data::CacheStats d, std::uint64_t wait_ns,
                       std::uint64_t load_ns) {
  d.loads = d.misses + d.prefetch_issued;
  d.load_ns = d.loads * load_ns;
  d.race_wait_ns = d.prefetch_races * wait_ns;
  return d;
}

constexpr std::uint64_t kLoadNs = 400'000;

TEST(PrefetchAutotuner, DeepensWhileDemandStillMisses) {
  data::PrefetchAutotuner tuner;
  EXPECT_EQ(tuner.depth(), 1u);
  // Misses every epoch: depth climbs one step per epoch up to capacity-1.
  EXPECT_EQ(tuner.update(delta(10, 5, 10, 0, 0), /*capacity_shards=*/6), 2u);
  EXPECT_EQ(tuner.update(delta(12, 3, 10, 0, 0), 6), 3u);
  EXPECT_EQ(tuner.update(delta(14, 1, 10, 0, 0), 6), 4u);
  EXPECT_EQ(tuner.update(delta(15, 1, 10, 0, 0), 6), 5u);
  EXPECT_EQ(tuner.update(delta(15, 1, 10, 0, 0), 6), 5u) << "capacity-1 cap";
  EXPECT_EQ(tuner.adjustments(), 4u);
}

TEST(PrefetchAutotuner, BacksOffOnWaste) {
  data::PrefetchAutotuner tuner;
  (void)tuner.update(delta(10, 5, 10, 0, 0), 8);
  (void)tuner.update(delta(10, 5, 10, 0, 0), 8);
  ASSERT_EQ(tuner.depth(), 3u);
  // More than waste_tolerance of the prefetches died unused: back off,
  // even though misses continue (waste wins the arbitration).
  EXPECT_EQ(tuner.update(delta(10, 2, 10, 0, 5), 8), 2u);
  EXPECT_EQ(tuner.update(delta(10, 2, 10, 0, 5), 8), 1u);
  EXPECT_EQ(tuner.update(delta(10, 2, 10, 0, 5), 8), 1u) << "floor at 1";
}

TEST(PrefetchAutotuner, DeepensOnRaces) {
  data::PrefetchAutotuner tuner;
  // No misses (single-flight absorbed them) but every second demand get
  // blocked on an in-flight prefetch: I/O is late, look further ahead.
  EXPECT_EQ(tuner.update(delta(10, 0, 10, 5, 0), 8), 2u);
}

TEST(PrefetchAutotuner, SteadyStateHoldsDepth) {
  data::PrefetchAutotuner tuner;
  (void)tuner.update(delta(10, 5, 10, 0, 0), 8);
  ASSERT_EQ(tuner.depth(), 2u);
  // All hits, no races, no waste: nothing to fix.
  EXPECT_EQ(tuner.update(delta(20, 0, 10, 0, 0), 8), 2u);
  EXPECT_EQ(tuner.update(delta(20, 0, 10, 0, 0), 8), 2u);
  EXPECT_EQ(tuner.adjustments(), 1u);
}

TEST(PrefetchAutotuner, IdleWindowLeavesDepthAlone) {
  data::PrefetchAutotuner tuner;
  (void)tuner.update(delta(10, 5, 10, 0, 0), 8);
  const std::size_t depth = tuner.depth();
  EXPECT_EQ(tuner.update(delta(0, 0, 0, 0, 0), 8), depth);
}

TEST(PrefetchAutotuner, FutileRacingDisablesPrefetch) {
  data::PrefetchAutotuner tuner;
  // Nearly every prefetch raced a demand get, and each wait lasted a whole
  // load (no spare core to decode on): one severe epoch deepens as usual, a
  // second proves futility and latches prefetch off — depth 0, permanently.
  const data::CacheStats severe =
      timed(delta(10, 0, 10, 8, 0), kLoadNs, kLoadNs);
  EXPECT_EQ(tuner.update(severe, 8), 2u);
  EXPECT_EQ(tuner.update(severe, 8), 0u);
  // The latch is sticky: later misses (inevitable at depth 0) must not
  // re-deepen, or the cache would oscillate off/on forever.
  EXPECT_EQ(tuner.update(delta(0, 10, 0, 0, 0), 8), 0u);
  EXPECT_EQ(tuner.update(delta(10, 5, 0, 0, 0), 8), 0u);
}

TEST(PrefetchAutotuner, RecoveredRacingResetsTheFutilityStreak) {
  data::PrefetchAutotuner tuner;
  // One severe epoch followed by a healthy one: the streak resets, so a
  // single bad epoch later still does not disable prefetch.
  const data::CacheStats severe =
      timed(delta(10, 0, 10, 8, 0), kLoadNs, kLoadNs);
  (void)tuner.update(severe, 8);
  (void)tuner.update(timed(delta(20, 0, 10, 0, 0), 0, kLoadNs), 8);
  EXPECT_GE(tuner.update(severe, 8), 1u);
}

TEST(PrefetchAutotuner, RacingThatStillHidesLoadsNeverLatches) {
  data::PrefetchAutotuner tuner;
  // Nearly every prefetch raced, but the consumer waited half a load on
  // each: the lookahead still hid the other half (a consumer faster than
  // the background decode, not a host without a spare core). That is a
  // reason to look further ahead, never to turn prefetch off.
  const data::CacheStats racing =
      timed(delta(10, 0, 10, 8, 0), kLoadNs / 2, kLoadNs);
  for (int epoch = 0; epoch < 10; ++epoch) {
    EXPECT_GE(tuner.update(racing, 8), 1u) << "epoch " << epoch;
  }
  EXPECT_EQ(tuner.depth(), 7u) << "deepened to capacity - 1";
}

TEST(PrefetchAutotuner, TinyCacheNeverLooksAhead) {
  data::PrefetchAutotuner tuner;
  // capacity 1: the current shard occupies the only slot; lookahead would
  // just thrash. Depth pins at 1 no matter how many misses.
  EXPECT_EQ(tuner.update(delta(0, 10, 10, 0, 0), 1), 1u);
  EXPECT_EQ(tuner.update(delta(0, 10, 10, 0, 0), 1), 1u);
}

}  // namespace
}  // namespace isasgd
