// Deterministic checkpoint/resume: the io::checkpoint format and the
// per-solver bit-parity contract.
//
// The hard promise under test (ISSUE 6 acceptance): for every registry
// solver declaring capabilities().checkpointable, killing a run at *any*
// epoch fence and resuming from the checkpoint in a fresh run produces a
// final model bit-identical to the uninterrupted run. Nothing "close" —
// EXPECT_EQ on the raw double vectors.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/synthetic.hpp"
#include "io/checkpoint.hpp"
#include "io/crc32.hpp"
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

/// Wants every fence and sleeps 40 ms in each capture, as a slow disk write
/// of the daemon's io::save_checkpoint would.
class SlowSink final : public solvers::SnapshotSink {
 public:
  [[nodiscard]] bool wants(std::size_t) const override { return true; }
  void capture(solvers::SnapshotState) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ++captures_;
  }
  [[nodiscard]] std::size_t captures() const { return captures_; }

 private:
  std::size_t captures_ = 0;
};

TEST(CheckpointClock, CaptureStaysOffTheTrainingClock) {
  // Capture runs at the fence, with the training clock paused: four 40 ms
  // captures must not reach train_seconds, whatever the solver, in memory
  // or shard-major.
  Fixture f;
  const data::InMemorySource shards(f.data, 50);
  const core::Trainer shard_major(shards, f.loss,
                                  objectives::Regularization::l2(1e-4), 1);
  std::vector<std::pair<const core::Trainer*, std::string>> runs;
  for (const char* name : kCheckpointable) runs.emplace_back(&f.trainer, name);
  runs.emplace_back(&shard_major, "SGD");
  solvers::SolverOptions opt = options_for();
  opt.epochs = 4;
  for (const auto& [trainer, solver] : runs) {
    SCOPED_TRACE(solver + (trainer == &shard_major ? " shard-major" : ""));
    SlowSink sink;
    const auto trace = trainer->train(solver, opt, nullptr, {.sink = &sink});
    EXPECT_EQ(sink.captures(), opt.epochs);
    EXPECT_LT(trace.train_seconds, 0.04);
  }
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

/// Offset of the first section's kind byte: the magic, the version, the
/// solver name with its length, four u64 header fields, the section count
/// and the header CRC come first (in both format versions).
std::size_t first_section_at(const solvers::SnapshotState& state) {
  return 4 + 4 + 4 + state.solver.size() + 4 * 8 + 4 + 4;
}

TEST(CheckpointFormat, AFlippedSectionKindIsCaught) {
  // The __model section's kind byte turned from f64 (0) to u64 (1): the
  // file would load an empty model and a word section named __model if no
  // CRC covered the kind.
  const std::string path = temp_path("kind.ckpt");
  io::save_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  const std::size_t at = first_section_at(sample_state());
  ASSERT_EQ(bytes[at], 0);
  bytes[at] = 1;
  spit(path, bytes);
  EXPECT_THROW((void)io::load_checkpoint(path), io::CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFormat, TrailingBytesAreRefused) {
  const std::string path = temp_path("trailing.ckpt");
  io::save_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  bytes.push_back('\0');
  spit(path, bytes);
  EXPECT_THROW((void)io::load_checkpoint(path), io::CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFormat, AHugeNameLengthIsRejectedBeforeAnythingIsSizedByIt) {
  // A solver-name length of 1 GiB in a file of a few dozen bytes. Loaded in
  // a forked child, so the peak RSS it reports is this load's alone.
  const std::string path = temp_path("huge_name.ckpt");
  io::save_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  const std::uint32_t huge = 0x40000000;
  std::memcpy(bytes.data() + 8, &huge, 4);  // right after magic and version
  spit(path, bytes);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    rusage before{}, after{};
    ::getrusage(RUSAGE_SELF, &before);
    int code = 2;  // loaded
    try {
      (void)io::load_checkpoint(path);
    } catch (const io::CheckpointError&) {
      code = 0;
    } catch (...) {
      code = 3;
    }
    ::getrusage(RUSAGE_SELF, &after);
    if (code == 0 && after.ru_maxrss - before.ru_maxrss > 64 * 1024) code = 1;
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "the loading child died";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: peak RSS grew by more than 64 MiB; 2: the file loaded; "
         "3: an error other than CheckpointError";
  std::remove(path.c_str());
}

/// Appends little-endian integers and raw bytes, as the version-1 writer
/// laid them out.
struct V1Bytes {
  std::vector<char> b;
  void raw(const void* p, std::size_t n) {
    b.insert(b.end(), static_cast<const char*>(p),
             static_cast<const char*>(p) + n);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void crc_since(std::size_t mark) {
    u32(io::crc32(b.data() + mark, b.size() - mark));
  }
  void section(std::uint8_t kind, const std::string& name, const void* payload,
               std::size_t count) {
    u8(kind);
    u32(static_cast<std::uint32_t>(name.size()));
    const std::size_t mark = b.size();
    raw(name.data(), name.size());
    u64(count);
    raw(payload, count * 8);
    crc_since(mark);
  }
};

TEST(CheckpointFormat, AVersionOneFileStillLoadsToItsState) {
  const solvers::SnapshotState state = sample_state();
  V1Bytes v1;
  v1.raw("ISCK", 4);
  v1.u32(1);
  const std::size_t header = v1.b.size();
  v1.u32(static_cast<std::uint32_t>(state.solver.size()));
  v1.raw(state.solver.data(), state.solver.size());
  v1.u64(state.epoch);
  v1.u64(state.seed);
  v1.u64(state.epochs_budget);
  v1.u64(state.dataset_fingerprint);
  v1.crc_since(header);
  v1.u32(3);
  v1.section(0, "__model", state.model.data(), state.model.size());
  const std::vector<double>& anchor = state.reals.at("svrg.anchor");
  v1.section(0, "svrg.anchor", anchor.data(), anchor.size());
  const std::vector<std::uint64_t>& rng = state.words.at("rng");
  v1.section(1, "rng", rng.data(), rng.size());
  v1.raw("tail", 4);  // version 1 ignores trailing bytes
  const std::string path = temp_path("v1.ckpt");
  spit(path, v1.b);
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
