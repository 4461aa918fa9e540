// data::PackedSource: served shards must be bit-identical to the
// parse-on-fault StreamingSource over the same data, training over the pack
// must be bit-identical to training over the original file for every
// deterministic solver in the registry (adaptive IS-SGD and the dist.*
// engines included) even under hard eviction pressure, and the sidecar must
// make setup provably zero-pass (load-counter assertions, not timing).
// materialize() must reproduce the matrix array for array when its shards
// decode in parallel on a pool, and fail typed, every time, on corruption.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/packed_source.hpp"
#include "data/streaming_source.hpp"
#include "data/synthetic.hpp"
#include "distributed/fenced.hpp"
#include "io/binary.hpp"
#include "io/shardpack.hpp"
#include "objectives/logistic.hpp"
#include "reopen_contract.hpp"
#include "solvers/is_sgd.hpp"
#include "solvers/solver.hpp"
#include "sparse/csr_builder.hpp"
#include "util/thread_pool.hpp"

namespace isasgd {
namespace {

constexpr std::size_t kShardRows = 64;
/// Small enough that only ~2 of the fixture's 7 shards fit resident: every
/// epoch cycles the cache, so parity holds under genuine eviction, not
/// because everything stayed cached.
constexpr std::size_t kTightBudget = 16 << 10;

struct Fixture {
  sparse::CsrMatrix data;
  std::string bin_path;
  std::string pack_path;

  Fixture() {
    data::SyntheticSpec spec;
    spec.rows = 400;
    spec.dim = 120;
    spec.mean_row_nnz = 8;
    spec.seed = 7;
    data = data::generate(spec);
    bin_path = ::testing::TempDir() + "packed_src.bin";
    pack_path = ::testing::TempDir() + "packed_src.issp";
    io::write_dataset_binary_file(bin_path, data);
    io::write_shardpack(pack_path, data, {.shard_rows = kShardRows});
  }
  ~Fixture() {
    std::remove(bin_path.c_str());
    std::remove(pack_path.c_str());
  }

  [[nodiscard]] data::StreamingOptions streaming_options() const {
    data::StreamingOptions opt;
    opt.shard_rows = kShardRows;
    opt.memory_budget_bytes = kTightBudget;
    return opt;
  }
  [[nodiscard]] data::PackedOptions packed_options() const {
    data::PackedOptions opt;
    opt.memory_budget_bytes = kTightBudget;
    return opt;
  }
};

TEST(PackedSource, ShardsAreBitIdenticalToStreaming) {
  const Fixture f;
  const data::StreamingSource stream(f.bin_path, f.streaming_options());
  const data::PackedSource packed(f.pack_path, f.packed_options());
  ASSERT_EQ(packed.rows(), stream.rows());
  ASSERT_EQ(packed.dim(), stream.dim());
  ASSERT_EQ(packed.nnz(), stream.nnz());
  ASSERT_EQ(packed.shard_count(), stream.shard_count());
  for (std::size_t s = 0; s < stream.shard_count(); ++s) {
    const data::ShardPtr a = stream.shard(s);
    const data::ShardPtr b = packed.shard(s);
    EXPECT_EQ(a->row_begin, b->row_begin);
    EXPECT_EQ(a->matrix->row_ptr(), b->matrix->row_ptr()) << "shard " << s;
    EXPECT_EQ(a->matrix->col_idx(), b->matrix->col_idx()) << "shard " << s;
    EXPECT_EQ(a->matrix->values(), b->matrix->values()) << "shard " << s;
    EXPECT_EQ(a->matrix->labels(), b->matrix->labels()) << "shard " << s;
  }
}

TEST(PackedSource, MaterializeReproducesTheMatrix) {
  const Fixture f;
  const data::PackedSource packed(f.pack_path, f.packed_options());
  const sparse::CsrMatrix& m = packed.materialize();
  EXPECT_EQ(m.row_ptr(), f.data.row_ptr());
  EXPECT_EQ(m.col_idx(), f.data.col_idx());
  EXPECT_EQ(m.values(), f.data.values());
  EXPECT_EQ(m.labels(), f.data.labels());
  // Idempotent single-flight: same object on the second call.
  EXPECT_EQ(&packed.materialize(), &m);
}

void expect_same_arrays(const sparse::CsrMatrix& got,
                        const sparse::CsrMatrix& want) {
  EXPECT_EQ(got.dim(), want.dim());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
  EXPECT_EQ(got.labels(), want.labels());
}

/// 203 rows with every fifth row empty and rows 64–127 all empty, so a
/// 64-row pack has repeated row ends, a shard with no non-zeros, and an
/// uneven last shard.
sparse::CsrMatrix data_with_empty_rows() {
  data::SyntheticSpec spec;
  spec.rows = 203;
  spec.dim = 90;
  spec.mean_row_nnz = 6;
  spec.seed = 3;
  const sparse::CsrMatrix dense = data::generate(spec);
  sparse::CsrBuilder b(dense.dim());
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    const auto row = dense.row(i);
    if (i % 5 == 0 || (i >= 64 && i < 128)) {
      b.add_row(std::span<const sparse::index_t>{},
                std::span<const sparse::value_t>{}, dense.label(i));
    } else {
      b.add_row(row.indices(), row.values(), dense.label(i));
    }
  }
  return b.build();
}

TEST(PackedSource, PooledMaterializeEqualsTheSourceMatrix) {
  // The parallel path: every shard decodes on a pool worker into its slice
  // of the final arrays.
  util::ThreadPool pool;
  const Fixture f;
  const sparse::CsrMatrix sparse_rows = data_with_empty_rows();
  const std::string path = ::testing::TempDir() + "packed_materialize.issp";
  struct Case {
    const sparse::CsrMatrix* data;
    std::size_t shard_rows;
  };
  for (const Case c : {Case{&f.data, kShardRows}, Case{&sparse_rows, 64},
                       Case{&f.data, f.data.rows()}}) {
    io::write_shardpack(path, *c.data, {.shard_rows = c.shard_rows});
    const data::PackedSource packed(path, f.packed_options(), &pool);
    EXPECT_FALSE(packed.resident());
    expect_same_arrays(packed.materialize(), *c.data);
    EXPECT_TRUE(packed.resident());
  }
  std::remove(path.c_str());
}

TEST(PackedSource, PooledMaterializeEqualsShardDecodes) {
  // f32 packs do not round-trip the source values, so both kinds are held
  // to the per-shard decodes instead.
  util::ThreadPool pool;
  const sparse::CsrMatrix rows = data_with_empty_rows();
  const std::string path = ::testing::TempDir() + "packed_kinds.issp";
  for (const io::PackValueKind kind :
       {io::PackValueKind::kF64, io::PackValueKind::kF32}) {
    io::write_shardpack(path, rows, {.shard_rows = 64, .values = kind});
    const data::PackedSource packed(path, {}, &pool);
    const sparse::CsrMatrix& full = packed.materialize();
    sparse::CsrBuilder b(packed.dim());
    for (std::size_t s = 0; s < packed.shard_count(); ++s) {
      const data::ShardPtr shard = packed.shard(s);
      for (std::size_t r = 0; r < shard->matrix->rows(); ++r) {
        const auto row = shard->matrix->row(r);
        b.add_row(row.indices(), row.values(), shard->matrix->label(r));
      }
    }
    expect_same_arrays(full, b.build());
  }
  std::remove(path.c_str());
}

TEST(PackedSource, CorruptBlockFailsEveryMaterialize) {
  util::ThreadPool pool;
  const Fixture f;
  std::vector<char> bytes;
  {
    std::ifstream in(f.pack_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // A byte deep in the last shard's payload: open passes, its block CRC
  // fails on first decode.
  bytes[bytes.size() - 16] = static_cast<char>(bytes[bytes.size() - 16] ^ 0x40);
  const std::string path = ::testing::TempDir() + "packed_corrupt.issp";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const data::PackedSource packed(path, f.packed_options(), &pool);
  EXPECT_THROW((void)packed.materialize(), io::ShardPackError);
  // The failed flight must not leave the next caller waiting on it.
  EXPECT_THROW((void)packed.materialize(), io::ShardPackError);
  EXPECT_FALSE(packed.resident());
  std::remove(path.c_str());
}

TEST(PackedSource, ReopenKeepsTheContract) {
  const Fixture f;
  util::ThreadPool pool;
  data::PackedOptions opt;
  opt.memory_budget_bytes = 1;  // one shard resident
  test::expect_reopen_contract(
      std::make_unique<data::PackedSource>(f.pack_path, opt, &pool), pool);
}

TEST(PackedSource, RowStatsServesExactSquaredNorms) {
  const Fixture f;
  const data::PackedSource packed(f.pack_path, f.packed_options());
  const data::RowStats* stats = packed.row_stats();
  ASSERT_NE(stats, nullptr);
  for (std::size_t i = 0; i < f.data.rows(); ++i) {
    EXPECT_EQ(stats->row_squared_norm(i), f.data.row(i).squared_norm())
        << "row " << i;
  }
}

TEST(PackedSource, StreamingSourceHasNoRowStats) {
  const Fixture f;
  const data::StreamingSource stream(f.bin_path, f.streaming_options());
  EXPECT_EQ(stream.row_stats(), nullptr);
}

/// Trains `solver` over both sources with identical options and requires
/// bit-identical final models.
void expect_training_parity(const Fixture& f, const std::string& solver,
                            solvers::SolverOptions opt,
                            const distributed::ClusterSpec* cluster) {
  opt.keep_final_model = true;
  objectives::LogisticLoss loss;
  const data::StreamingSource stream(f.bin_path, f.streaming_options());
  const data::PackedSource packed(f.pack_path, f.packed_options());
  auto build = [&](const data::DataSource& source) {
    core::TrainerBuilder b;
    b.source(source).objective(loss).l2(1e-3).eval_threads(1);
    if (cluster) b.cluster(*cluster);
    return b.build();
  };
  const auto from_stream = build(stream).train(solver, opt);
  const auto from_pack = build(packed).train(solver, opt);
  ASSERT_EQ(from_pack.final_model.size(), from_stream.final_model.size())
      << solver;
  for (std::size_t j = 0; j < from_stream.final_model.size(); ++j) {
    ASSERT_EQ(from_pack.final_model[j], from_stream.final_model[j])
        << solver << " coordinate " << j;
  }
}

solvers::SolverOptions parity_options() {
  solvers::SolverOptions opt;
  opt.epochs = 3;
  opt.step_size = 0.3;
  opt.seed = 20260808;
  return opt;
}

TEST(PackedParity, EveryDeterministicRegistrySolver) {
  // Serial solvers are bit-pure; the dist.*/sim.* engines are single-thread
  // discrete-event simulations, equally bit-pure. Hogwild solvers race by
  // construction and are covered at threads=1 below.
  const Fixture f;
  distributed::ClusterSpec cluster;
  cluster.nodes = 3;
  const auto& registry = solvers::SolverRegistry::instance();
  std::size_t covered = 0;
  for (const std::string& name : registry.list()) {
    const auto caps = registry.get(name).capabilities();
    if (!caps.serial() && !caps.simulated_time) continue;
    ++covered;
    expect_training_parity(f, name, parity_options(),
                           caps.simulated_time ? &cluster : nullptr);
  }
  EXPECT_GE(covered, 10u);
}

TEST(PackedParity, AdaptiveImportanceSgdUsesSidecarBitIdentically) {
  // Adaptive IS-SGD reads row norms at setup — over the pack those come
  // from the sidecar (zero-pass), over the file from the loaded rows. Same
  // bits required.
  const Fixture f;
  solvers::SolverOptions opt = parity_options();
  opt.adaptive_importance = true;
  expect_training_parity(f, "IS-SGD", opt, nullptr);
}

TEST(PackedParity, SingleThreadAsgdMatches) {
  const Fixture f;
  solvers::SolverOptions opt = parity_options();
  opt.threads = 1;
  expect_training_parity(f, "IS-ASGD", opt, nullptr);
  expect_training_parity(f, "ASGD", opt, nullptr);
}

TEST(PackedZeroPass, DistSetupLoadsNoShards) {
  // The load-counter proof: parameter-server setup over a pack must build
  // per-shard importance and Φ entirely from the sidecar. Zero loads, zero
  // prefetches — not "fast", *none*.
  const Fixture f;
  objectives::LogisticLoss loss;
  const data::PackedSource packed(f.pack_path, f.packed_options());
  solvers::SolverOptions opt = parity_options();
  const auto setup = distributed::fenced::make_ps_setup(
      packed, loss, opt, /*nodes=*/3, /*use_importance=*/true);
  const data::CacheStats stats = *packed.cache_stats();
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.prefetch_issued, 0u);

  // And the zero-pass numbers are the loaded-path numbers, bit for bit.
  const data::StreamingSource stream(f.bin_path, f.streaming_options());
  const auto loaded = distributed::fenced::make_ps_setup(
      stream, loss, opt, /*nodes=*/3, /*use_importance=*/true);
  ASSERT_EQ(setup.shard_phi.size(), loaded.shard_phi.size());
  for (std::size_t s = 0; s < setup.shard_phi.size(); ++s) {
    EXPECT_EQ(setup.shard_phi[s], loaded.shard_phi[s]) << "shard " << s;
    EXPECT_EQ(setup.shard_importance[s], loaded.shard_importance[s])
        << "shard " << s;
  }
  EXPECT_GT(stream.cache_stats()->loads, 0u)
      << "loaded path is supposed to pay the pass the sidecar avoids";
}

TEST(PackedZeroPass, SidecarFedIsSgdMatchesLoadedPath) {
  // Direct solver-level check: run_is_sgd with the sidecar feed equals the
  // loaded-path run bit for bit (importance AND adaptive row norms).
  const Fixture f;
  objectives::LogisticLoss loss;
  const data::PackedSource packed(f.pack_path, f.packed_options());
  solvers::SolverOptions opt = parity_options();
  opt.reg = objectives::Regularization::l2(1e-3);
  opt.keep_final_model = true;
  opt.adaptive_importance = true;
  const auto eval = [](std::span<const double>) {
    return solvers::EvalResult{};
  };
  const auto with_stats =
      solvers::run_is_sgd(f.data, loss, opt, eval, nullptr, {},
                          packed.row_stats());
  const auto without_stats =
      solvers::run_is_sgd(f.data, loss, opt, eval, nullptr, {}, nullptr);
  EXPECT_EQ(with_stats.final_model, without_stats.final_model);
}

TEST(PackedSource, BufferPoolRecyclesUnderEviction) {
  const Fixture f;
  core::ExecutionContext ctx(1);
  const auto packed = [&] {
    data::PackedOptions opt;
    opt.memory_budget_bytes = kTightBudget;
    return std::make_shared<data::PackedSource>(f.pack_path, opt, &ctx.pool());
  }();
  objectives::LogisticLoss loss;
  solvers::SolverOptions opt = parity_options();
  opt.epochs = 4;
  const core::Trainer trainer = core::TrainerBuilder()
                                    .source(*packed)
                                    .objective(loss)
                                    .l2(1e-3)
                                    .eval_threads(1)
                                    .build();
  (void)trainer.train("SGD", opt);
  const data::CacheStats stats = *packed->cache_stats();
  EXPECT_GT(stats.evictions, 0u) << "budget did not create eviction pressure";
  // Once the first pass populated the pool, later decodes reuse arrays.
  EXPECT_GT(packed->buffer_pool_reuses(), 0u);
  // The autotuner is live and its depth stays in its contract range
  // (0 is legal: the futility latch fires on hosts with no spare core).
  EXPECT_LE(packed->prefetch_depth(), 8u);
}

}  // namespace
}  // namespace isasgd
