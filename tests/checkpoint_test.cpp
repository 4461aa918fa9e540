// Deterministic checkpoint/resume: the io::checkpoint format and the
// per-solver bit-parity contract.
//
// The hard promise under test (ISSUE 6 acceptance): for every registry
// solver declaring capabilities().checkpointable, killing a run at *any*
// epoch fence and resuming from the checkpoint in a fresh run produces a
// final model bit-identical to the uninterrupted run. Nothing "close" —
// EXPECT_EQ on the raw double vectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/synthetic.hpp"
#include "io/checkpoint.hpp"
#include "objectives/logistic.hpp"
#include "solvers/snapshot.hpp"
#include "solvers/solver.hpp"

namespace isasgd {
namespace {

constexpr std::size_t kEpochs = 6;

/// Every checkpointable solver in the registry, by canonical name. The
/// RegistryAgreesWithThisList test keeps it honest: adding a checkpointable
/// solver without extending the parity sweep fails the suite.
const char* const kCheckpointable[] = {"SGD",      "IS-SGD",      "PROX-SGD",
                                       "IS-PROX-SGD", "SVRG-SGD", "SVRG-LAZY",
                                       "SAG",      "SAGA"};

struct Fixture {
  sparse::CsrMatrix data;
  objectives::LogisticLoss loss;
  core::Trainer trainer;

  Fixture()
      : data([] {
          data::SyntheticSpec spec;
          spec.rows = 240;
          spec.dim = 48;
          spec.mean_row_nnz = 6;
          return data::generate(spec);
        }()),
        trainer(data, loss, objectives::Regularization::l2(1e-4), 1) {}
};

solvers::SolverOptions options_for(bool adaptive = false) {
  solvers::SolverOptions opt;
  opt.epochs = kEpochs;
  opt.step_size = 0.2;
  opt.seed = 42;
  opt.keep_final_model = true;
  opt.adaptive_importance = adaptive;
  return opt;
}

/// Captures the state at one target fence and asks for an early stop right
/// after it — the in-process stand-in for `kill -9` at that fence.
class KillAtFence final : public solvers::SnapshotSink,
                          public solvers::TrainingObserver {
 public:
  explicit KillAtFence(std::size_t epoch) : epoch_(epoch) {}

  [[nodiscard]] bool wants(std::size_t epoch) const override {
    return epoch == epoch_;
  }
  void capture(solvers::SnapshotState state) override {
    state_ = std::move(state);
  }
  bool on_epoch(const solvers::TracePoint& point) override {
    return point.epoch < epoch_;
  }

  [[nodiscard]] const solvers::SnapshotState& state() const {
    EXPECT_TRUE(state_.has_value());
    return *state_;
  }

 private:
  std::size_t epoch_;
  std::optional<solvers::SnapshotState> state_;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Uninterrupted run → kill at `fence` (capture + stop) → round-trip the
/// state through the binary format → resume in a fresh run → compare.
void expect_bit_parity(const core::Trainer& trainer, const std::string& solver,
                       std::size_t fence,
                       const solvers::SolverOptions& opt = options_for()) {
  const auto full = trainer.train(solver, opt);
  ASSERT_EQ(full.final_model.size(), trainer.source().dim());

  KillAtFence kill(fence);
  const auto killed = trainer.train(
      solver, opt, &kill, {.resume = nullptr, .sink = &kill});
  ASSERT_EQ(killed.points.back().epoch, fence) << "kill fence not honoured";

  solvers::SnapshotState state = kill.state();
  EXPECT_EQ(state.epoch, fence);
  EXPECT_EQ(state.solver, solvers::SolverRegistry::instance().get(solver).name());

  const std::string path = temp_path("parity_" + state.solver + "_" +
                                     std::to_string(fence) + ".ckpt");
  io::save_checkpoint(path, state);
  const solvers::SnapshotState restored = io::load_checkpoint(path);

  const auto resumed =
      trainer.train(solver, opt, nullptr, {.resume = &restored});
  ASSERT_EQ(resumed.final_model.size(), full.final_model.size());
  EXPECT_EQ(resumed.final_model, full.final_model)
      << solver << ": resume from fence " << fence
      << " diverged from the uninterrupted run";
  std::remove(path.c_str());
}

class ParitySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ParitySweep, KillAtFirstFence) {
  Fixture f;
  expect_bit_parity(f.trainer, GetParam(), 1);
}

TEST_P(ParitySweep, KillAtMiddleFence) {
  Fixture f;
  expect_bit_parity(f.trainer, GetParam(), kEpochs / 2);
}

TEST_P(ParitySweep, KillAtLastFence) {
  // Resuming from the final fence runs zero epochs; the restored model must
  // pass through untouched.
  Fixture f;
  expect_bit_parity(f.trainer, GetParam(), kEpochs);
}

INSTANTIATE_TEST_SUITE_P(Checkpointable, ParitySweep,
                         ::testing::ValuesIn(kCheckpointable),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// A resume the sweep above does not reach: shard-major SGD (the fixture in
/// shards of 50, where the run's first epoch enters the shard-major driver)
/// and mini-batch runs (in-memory SGD's RNG must stop at ⌈n/b⌉·b draws an
/// epoch for the words a checkpoint captures to line up).
struct ResumeCase {
  const char* name;
  const char* solver;
  std::size_t shard_rows;  ///< 0: the whole fixture as one in-memory shard
  std::size_t batch;

  friend void PrintTo(const ResumeCase& c, std::ostream* os) { *os << c.name; }
};

constexpr ResumeCase kResumeCases[] = {
    {"ShardMajorSgd", "SGD", 50, 1},
    {"ShardMajorSgdBatch3", "SGD", 50, 3},
    {"SgdBatch3", "SGD", 0, 3},
    {"IsSgdBatch3", "IS-SGD", 0, 3},
};

class ResumeSweep : public ::testing::TestWithParam<ResumeCase> {
 protected:
  static void expect_parity_at(std::size_t fence) {
    const ResumeCase& c = GetParam();
    Fixture f;
    const data::InMemorySource source(f.data, c.shard_rows);
    ASSERT_EQ(source.shard_count() > 1, c.shard_rows != 0);
    const core::Trainer trainer(source, f.loss,
                                objectives::Regularization::l2(1e-4), 1);
    solvers::SolverOptions opt = options_for();
    opt.batch_size = c.batch;
    expect_bit_parity(trainer, c.solver, fence, opt);
  }
};

TEST_P(ResumeSweep, KillAtFirstFence) { expect_parity_at(1); }
TEST_P(ResumeSweep, KillAtMiddleFence) { expect_parity_at(kEpochs / 2); }
TEST_P(ResumeSweep, KillAtLastFence) { expect_parity_at(kEpochs); }

INSTANTIATE_TEST_SUITE_P(ShardMajorAndBatched, ResumeSweep,
                         ::testing::ValuesIn(kResumeCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(CheckpointParity, AdaptiveImportanceSgd) {
  // Adaptive IS-SGD carries the most state (last gradient norms, refreshed
  // importance, rebuilt sampler) — kill around a refresh boundary.
  Fixture f;
  expect_bit_parity(f.trainer, "IS-SGD", 3, options_for(/*adaptive=*/true));
}

TEST(CheckpointParity, RegistryAgreesWithThisList) {
  std::vector<std::string> expected(std::begin(kCheckpointable),
                                    std::end(kCheckpointable));
  for (const std::string& name : solvers::SolverRegistry::instance().list()) {
    const bool ck = solvers::SolverRegistry::instance()
                        .get(name)
                        .capabilities()
                        .checkpointable;
    const bool listed =
        std::find(expected.begin(), expected.end(), name) != expected.end();
    EXPECT_EQ(ck, listed) << name
                          << (ck ? " is checkpointable but missing from the "
                                   "parity sweep"
                                 : " is in the parity sweep but no longer "
                                   "checkpointable");
  }
}

TEST(CheckpointParity, NonCheckpointableSolverRejectsHooks) {
  Fixture f;
  KillAtFence sink(1);
  EXPECT_THROW(
      (void)f.trainer.train("ASGD", options_for(), nullptr, {.sink = &sink}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Format-level defect handling.

solvers::SnapshotState sample_state() {
  solvers::SnapshotState state;
  state.solver = "SGD";
  state.epoch = 3;
  state.seed = 42;
  state.epochs_budget = 6;
  state.dataset_fingerprint = 0xfeedfacecafebeefULL;
  state.model = {1.5, -2.25, 0.0, 3.0e-7};
  state.reals["svrg.anchor"] = {0.5, 0.25};
  state.words["rng"] = {1, 2, 3, 4};
  return state;
}

TEST(CheckpointFormat, RoundTripPreservesEverything) {
  const std::string path = temp_path("roundtrip.ckpt");
  const solvers::SnapshotState state = sample_state();
  io::save_checkpoint(path, state);
  const solvers::SnapshotState loaded = io::load_checkpoint(path);
  EXPECT_EQ(loaded.solver, state.solver);
  EXPECT_EQ(loaded.epoch, state.epoch);
  EXPECT_EQ(loaded.seed, state.seed);
  EXPECT_EQ(loaded.epochs_budget, state.epochs_budget);
  EXPECT_EQ(loaded.dataset_fingerprint, state.dataset_fingerprint);
  EXPECT_EQ(loaded.model, state.model);
  EXPECT_EQ(loaded.reals, state.reals);
  EXPECT_EQ(loaded.words, state.words);
  std::remove(path.c_str());
}

TEST(CheckpointFormat, MissingFileNamesThePath) {
  try {
    (void)io::load_checkpoint("/nonexistent/nowhere.ckpt");
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("nowhere.ckpt"), std::string::npos);
  }
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointFormat, FlippedPayloadByteReportsCrcMismatch) {
  const std::string path = temp_path("corrupt.ckpt");
  io::save_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  // Flip a byte deep in the payload region (past magic/version/header).
  bytes[bytes.size() - 12] ^= 0x40;
  spit(path, bytes);
  try {
    (void)io::load_checkpoint(path);
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, TruncationIsRejectedAtEveryLength) {
  const std::string path = temp_path("truncated.ckpt");
  io::save_checkpoint(path, sample_state());
  const std::vector<char> bytes = slurp(path);
  // A kill mid-write can leave any prefix; every one must be rejected (a
  // stride keeps the loop fast, the endpoints cover the degenerate cases).
  for (std::size_t keep = 0; keep < bytes.size();
       keep += (keep < 16 ? 1 : 13)) {
    spit(path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    EXPECT_THROW((void)io::load_checkpoint(path), io::CheckpointError)
        << "prefix of " << keep << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, FutureVersionIsRefused) {
  const std::string path = temp_path("version.ckpt");
  io::save_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  bytes[4] = 99;  // little-endian u32 version right after the magic
  spit(path, bytes);
  try {
    (void)io::load_checkpoint(path);
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, WrongMagicIsRefused) {
  const std::string path = temp_path("magic.ckpt");
  io::save_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  bytes[0] = 'X';
  spit(path, bytes);
  EXPECT_THROW((void)io::load_checkpoint(path), io::CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointResume, WrongSeedIsRefusedBySolver) {
  Fixture f;
  KillAtFence kill(2);
  (void)f.trainer.train("SGD", options_for(), &kill, {.sink = &kill});
  solvers::SnapshotState state = kill.state();
  state.seed ^= 1;
  solvers::SolverOptions opt = options_for();
  EXPECT_THROW((void)f.trainer.train("SGD", opt, nullptr, {.resume = &state}),
               std::invalid_argument);
}

TEST(CheckpointResume, WrongSolverIsRefused) {
  Fixture f;
  KillAtFence kill(2);
  (void)f.trainer.train("SGD", options_for(), &kill, {.sink = &kill});
  const solvers::SnapshotState& state = kill.state();
  EXPECT_THROW(
      (void)f.trainer.train("SAGA", options_for(), nullptr, {.resume = &state}),
      std::invalid_argument);
}

}  // namespace
}  // namespace isasgd
