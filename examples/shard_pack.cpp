// Dataset compiler: converts a LibSVM text / ISASGD binary file into an
// io::shardpack (ISSP) — the mmap-served columnar format data::PackedSource
// trains from with zero setup passes.
//
//   build/examples/shard_pack --in news20.binary --out news20.issp
//       --shard-rows 8192 --verify
//
// Conversion streams shard-by-shard through a StreamingSource, so peak
// memory is one shard regardless of file size. --verify re-opens both files
// and proves the round trip: identical geometry, bit-identical rows/labels
// (for f64 packs), and a sidecar that matches freshly computed squared
// norms.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "data/packed_source.hpp"
#include "data/streaming_source.hpp"
#include "io/shardpack.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace isasgd;

/// Byte-for-byte shard comparison between the original source and the
/// pack. Returns the number of mismatching shards (0 = identical).
std::size_t verify_pack(const data::StreamingSource& original,
                        const data::PackedSource& packed, bool lossless) {
  if (original.rows() != packed.rows() || original.dim() != packed.dim() ||
      original.nnz() != packed.nnz() ||
      original.shard_count() != packed.shard_count()) {
    std::fprintf(stderr, "verify: geometry mismatch (n=%zu/%zu d=%zu/%zu)\n",
                 original.rows(), packed.rows(), original.dim(), packed.dim());
    return 1;
  }
  std::size_t bad = 0;
  for (std::size_t s = 0; s < original.shard_count(); ++s) {
    const data::ShardPtr a = original.shard(s);
    const data::ShardPtr b = packed.shard(s);
    const sparse::CsrMatrix& ma = *a->matrix;
    const sparse::CsrMatrix& mb = *b->matrix;
    bool ok = a->row_begin == b->row_begin && ma.rows() == mb.rows() &&
              ma.nnz() == mb.nnz() &&
              ma.row_ptr() == mb.row_ptr() && ma.col_idx() == mb.col_idx() &&
              ma.labels().size() == mb.labels().size() &&
              std::memcmp(ma.labels().data(), mb.labels().data(),
                          ma.labels().size() * sizeof(double)) == 0;
    if (ok) {
      if (lossless) {
        // f64 pack: values must round-trip to the exact bits.
        ok = std::memcmp(ma.values().data(), mb.values().data(),
                         ma.values().size() * sizeof(double)) == 0;
      } else {
        for (std::size_t k = 0; ok && k < ma.values().size(); ++k) {
          ok = static_cast<float>(ma.values()[k]) ==
               static_cast<float>(mb.values()[k]);
        }
      }
    }
    if (ok && lossless) {
      // Sidecar audit: stored squared norms must equal a fresh computation
      // over the original rows, bitwise.
      for (std::size_t r = 0; ok && r < ma.rows(); ++r) {
        const double fresh = ma.row(r).squared_norm();
        const double stored =
            packed.reader().row_squared_norm(a->row_begin + r);
        ok = fresh == stored;
      }
    }
    if (!ok) {
      std::fprintf(stderr, "verify: shard %zu mismatch\n", s);
      ++bad;
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("shard_pack",
                      "Compile a LibSVM/binary dataset into an ISSP shardpack");
  cli.add_flag("in", "", "input dataset (LibSVM text or ISASGD binary)");
  cli.add_flag("out", "", "output shardpack path (required)");
  cli.add_flag("shard-rows", "4096", "rows per shard");
  cli.add_flag("values", "f64", "value column width: f64 (lossless) | f32");
  cli.add_flag("verify", "false",
               "re-open both files and compare every shard byte-for-byte");
  if (!cli.parse(argc, argv)) return 0;

  const std::string in = cli.get("in");
  const std::string out = cli.get("out");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "error: --in and --out are required\n%s",
                 cli.usage().c_str());
    return 1;
  }
  io::ShardPackWriteOptions opts;
  opts.shard_rows = static_cast<std::size_t>(cli.get_i64("shard-rows"));
  if (cli.get("values") == "f32") {
    opts.values = io::PackValueKind::kF32;
  } else if (cli.get("values") != "f64") {
    std::fprintf(stderr, "error: unknown --values '%s'\n",
                 cli.get("values").c_str());
    return 1;
  }

  try {
    data::StreamingOptions sopts;
    sopts.shard_rows = opts.shard_rows;
    sopts.prefetch = false;  // conversion is a sequential single pass
    const data::StreamingSource source(in, sopts);
    std::printf("packing %s: n=%zu d=%zu nnz=%zu, %zu shards of %zu rows\n",
                in.c_str(), source.rows(), source.dim(), source.nnz(),
                source.shard_count(), opts.shard_rows);
    io::write_shardpack(out, source, opts);
    std::printf("wrote %s\n", out.c_str());

    if (cli.get_bool("verify")) {
      const data::PackedSource packed(out);
      const std::size_t bad =
          verify_pack(source, packed, opts.values == io::PackValueKind::kF64);
      if (bad != 0) {
        std::fprintf(stderr, "verify FAILED: %zu shard(s) differ\n", bad);
        return 1;
      }
      std::printf("verify ok: %zu shards identical, sidecar consistent\n",
                  packed.shard_count());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
