// Real-backend cross-validation: the process group (1 PS + k workers over a
// real transport) must produce the SAME BITS as the fenced simulator — per
// solver, per transport, per source shape — and must actually train
// (closed-form optimum on an identity-design least-squares problem). The
// parameter-server cases run on several inputs (tests/ps_inputs.hpp), so
// steps that never share a coordinate, steps that always do, and ranks that
// leave the rotation in different rounds are all pinned; and on every
// multi-shard source shape, so the group deals whole shards as the
// simulator does. A group must also end with its controller.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "sparse/csr_builder.hpp"
#include "data/data_source.hpp"
#include "data/packed_source.hpp"
#include "data/streaming_source.hpp"
#include "data/synthetic.hpp"
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "io/binary.hpp"
#include "io/shardpack.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/least_squares.hpp"
#include "objectives/logistic.hpp"
#include "ps_inputs.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::distributed {
namespace {

sparse::CsrMatrix synthetic(std::size_t rows, std::size_t dim) {
  data::SyntheticSpec spec;
  spec.rows = rows;
  spec.dim = dim;
  spec.mean_row_nnz = 6;
  spec.target_psi = 0.85;
  spec.label_noise = 0.02;
  return data::generate(spec);
}

struct Fixture {
  sparse::CsrMatrix data;
  objectives::LogisticLoss loss;
  metrics::Evaluator evaluator;

  explicit Fixture(std::size_t rows = 300, std::size_t dim = 60)
      : Fixture(synthetic(rows, dim)) {}
  explicit Fixture(sparse::CsrMatrix m)
      : data(std::move(m)),
        evaluator(data, loss, objectives::Regularization::none(), 1) {}
};

/// The inputs every parameter-server case of PsProcessSuite runs on.
struct Input {
  const char* name;
  sparse::CsrMatrix (*make)();
};

const Input kPsInputs[] = {
    {"synthetic", [] { return synthetic(300, 60); }},
    {"disjoint rows, one empty", [] { return test::disjoint_rows(60); }},
    {"one coordinate in every row",
     [] { return test::shared_coordinate_rows(60); }},
    {"odd row count", [] { return synthetic(301, 60); }},
};

solvers::SolverOptions small_options() {
  solvers::SolverOptions opt;
  opt.step_size = 0.3;
  opt.epochs = 3;
  opt.seed = 1234;
  opt.keep_final_model = true;
  return opt;
}

ClusterSpec process_spec(const std::string& transport, std::size_t nodes = 2) {
  ClusterSpec spec;
  spec.nodes = nodes;
  spec.backend = Backend::kProcess;
  spec.schedule = Schedule::kFencedRoundRobin;
  spec.transport = transport;
  return spec;
}

void expect_bit_identical(const solvers::Trace& real,
                          const solvers::Trace& sim, const char* what) {
  ASSERT_EQ(real.final_model.size(), sim.final_model.size()) << what;
  for (std::size_t j = 0; j < real.final_model.size(); ++j) {
    ASSERT_EQ(real.final_model[j], sim.final_model[j])
        << what << ": coordinate " << j << " diverged";
  }
  ASSERT_EQ(real.points.size(), sim.points.size()) << what;
  for (std::size_t p = 0; p < real.points.size(); ++p) {
    // Same models at every fence ⇒ same metrics at every epoch (times
    // differ: wall vs simulated).
    ASSERT_EQ(real.points[p].objective, sim.points[p].objective)
        << what << ": epoch " << real.points[p].epoch;
  }
}

class PsProcessSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(PsProcessSuite, IsAsgdMatchesFencedSimulatorBitForBit) {
  for (const Input& in : kPsInputs) {
    SCOPED_TRACE(in.name);
    Fixture fx(in.make());
    const auto opt = small_options();
    ClusterSpec spec = process_spec(GetParam());
    ParamServerReport real_report;
    const solvers::Trace real = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/true, fx.evaluator.as_fn(), &real_report);
    spec.backend = Backend::kSimulate;
    const solvers::Trace sim = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/true, fx.evaluator.as_fn());
    expect_bit_identical(real, sim, "ps_is_asgd");
    // 2 nodes × 3 epochs: every sample became one push.
    EXPECT_EQ(real_report.messages, 3u * fx.data.rows());
    EXPECT_EQ(real_report.mean_staleness_updates, 0.0);
  }
}

TEST_P(PsProcessSuite, AsgdUniformMatchesFencedSimulatorBitForBit) {
  for (const Input& in : kPsInputs) {
    SCOPED_TRACE(in.name);
    Fixture fx(in.make());
    const auto opt = small_options();
    ClusterSpec spec = process_spec(GetParam());
    const solvers::Trace real = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/false, fx.evaluator.as_fn());
    spec.backend = Backend::kSimulate;
    const solvers::Trace sim = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/false, fx.evaluator.as_fn());
    expect_bit_identical(real, sim, "ps_asgd");
  }
}

TEST_P(PsProcessSuite, AllreduceMatchesFencedSimulatorBitForBit) {
  Fixture fx;
  auto opt = small_options();
  opt.batch_size = 8;
  ClusterSpec spec = process_spec(GetParam());
  AllreduceReport real_report;
  const solvers::Trace real = run_allreduce_sgd(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/false, fx.evaluator.as_fn(), &real_report);
  spec.backend = Backend::kSimulate;
  AllreduceReport sim_report;
  const solvers::Trace sim = run_allreduce_sgd(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/false, fx.evaluator.as_fn(), &sim_report);
  expect_bit_identical(real, sim, "allreduce_sgd");
  EXPECT_EQ(real_report.rounds, sim_report.rounds);
}

TEST_P(PsProcessSuite, ThreeWorkersAlsoMatch) {
  for (const Input& in : kPsInputs) {
    SCOPED_TRACE(in.name);
    Fixture fx(in.make());
    const auto opt = small_options();
    ClusterSpec spec = process_spec(GetParam(), /*nodes=*/3);
    const solvers::Trace real = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/true, fx.evaluator.as_fn());
    spec.backend = Backend::kSimulate;
    const solvers::Trace sim = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/true, fx.evaluator.as_fn());
    expect_bit_identical(real, sim, "ps_is_asgd k=3");
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, PsProcessSuite,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

// ---- Multi-shard sources ---------------------------------------------------

/// One dataset in the three multi-shard shapes: a chunked in-memory source
/// whose shard size does not divide n, and a pack and a StreamingSource
/// under a budget of one shard. The file sources prefetch on a pool whose
/// threads a forked worker does not have.
struct ShardedSources {
  static constexpr std::size_t kShardRows = 64;  // 300 rows: 5 shards

  Fixture fx{300, 60};
  std::string bin_path;
  std::string pack_path;
  util::ThreadPool pool;
  std::unique_ptr<data::DataSource> chunked, packed, streaming;

  ShardedSources() {
    const std::string stem = ::testing::TempDir() + "dist_process_" +
                             std::to_string(::getpid());
    bin_path = stem + ".bin";
    pack_path = stem + ".issp";
    io::write_dataset_binary_file(bin_path, fx.data);
    io::write_shardpack(pack_path, fx.data, {.shard_rows = kShardRows});
    chunked = std::make_unique<data::InMemorySource>(fx.data, kShardRows);
    data::PackedOptions pack_opt;
    pack_opt.memory_budget_bytes = 1;  // the cache keeps one shard
    packed = std::make_unique<data::PackedSource>(pack_path, pack_opt, &pool);
    data::StreamingOptions stream_opt;
    stream_opt.shard_rows = kShardRows;
    stream_opt.memory_budget_bytes = 1;
    streaming =
        std::make_unique<data::StreamingSource>(bin_path, stream_opt, &pool);
  }
  ~ShardedSources() {
    std::remove(bin_path.c_str());
    std::remove(pack_path.c_str());
  }

  [[nodiscard]] std::vector<std::pair<const char*, const data::DataSource*>>
  all() const {
    return {{"chunked in-memory", chunked.get()},
            {"pack, one-shard budget", packed.get()},
            {"stream, one-shard budget", streaming.get()}};
  }
};

class ShardedSourceSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedSourceSuite, BothPsSolversMatchTheSimulatorOnEveryShape) {
  const ShardedSources in;
  const auto opt = small_options();
  for (const auto& [name, source] : in.all()) {
    ASSERT_EQ(source->shard_count(), 5u) << name;
    for (const bool importance : {true, false}) {
      SCOPED_TRACE(std::string(name) + (importance ? ", IS" : ", uniform"));
      ClusterSpec spec = process_spec(GetParam());
      const solvers::Trace real =
          run_param_server(*source, in.fx.loss, opt, spec, importance,
                           in.fx.evaluator.as_fn());
      spec.backend = Backend::kSimulate;
      const solvers::Trace sim =
          run_param_server(*source, in.fx.loss, opt, spec, importance,
                           in.fx.evaluator.as_fn());
      expect_bit_identical(real, sim, name);
    }
  }
}

TEST_P(ShardedSourceSuite, AllreduceOnAChunkedSourceMatchesTheSimulator) {
  const ShardedSources in;
  auto opt = small_options();
  opt.batch_size = 8;
  ClusterSpec spec = process_spec(GetParam());
  const solvers::Trace real =
      run_allreduce_sgd(*in.chunked, in.fx.loss, opt, spec,
                        /*use_importance=*/false, in.fx.evaluator.as_fn());
  spec.backend = Backend::kSimulate;
  const solvers::Trace sim =
      run_allreduce_sgd(*in.chunked, in.fx.loss, opt, spec,
                        /*use_importance=*/false, in.fx.evaluator.as_fn());
  expect_bit_identical(real, sim, "allreduce_sgd chunked");
}

INSTANTIATE_TEST_SUITE_P(Transports, ShardedSourceSuite,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

TEST(ShardedSource, FaultTolerantSpecsAreRejectedBeforeAnyFork) {
  // An adopted walk is fast-forwarded to the server's count, and a
  // shard-major walk rewinds at every epoch: a crash scenario or wire
  // faults on a multi-shard source are refused before anything is planned,
  // let alone forked (the observer never sees the epoch-0 point).
  struct CountEpochs final : solvers::TrainingObserver {
    int points = 0;
    bool on_epoch(const solvers::TracePoint&) override {
      ++points;
      return true;
    }
  } counter;
  Fixture fx(120, 40);
  const data::InMemorySource chunked(fx.data, /*shard_rows=*/50);
  ClusterSpec crash = process_spec("shm");
  crash.fault.crash_node = 1;
  crash.fault.crash_epoch = 2;
  ClusterSpec wire = process_spec("shm");
  wire.wire_faults.drop_rate = 0.1;
  ClusterSpec simulated_crash = crash;
  simulated_crash.backend = Backend::kSimulate;
  for (const ClusterSpec& spec : {crash, wire, simulated_crash}) {
    EXPECT_THROW((void)run_param_server(chunked, fx.loss, small_options(),
                                        spec, /*use_importance=*/true,
                                        fx.evaluator.as_fn(), nullptr,
                                        &counter),
                 std::invalid_argument)
        << backend_name(spec.backend);
  }
  EXPECT_EQ(counter.points, 0);
}

// ---- A group ends with its controller ---------------------------------------

/// SIGKILLs and reaps every child of this process.
void kill_children() {
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    std::getline(stat, line);
    const std::size_t paren = line.rfind(')');
    if (paren == std::string::npos || paren + 2 >= line.size()) continue;
    std::istringstream fields(line.substr(paren + 2));
    char state = 0;
    long ppid = 0;
    fields >> state >> ppid;
    if (ppid == ::getpid()) ::kill(static_cast<pid_t>(std::stol(pid)), SIGKILL);
  }
  while (::waitpid(-1, nullptr, 0) > 0) {
  }
}

class ControllerKillSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(ControllerKillSuite, NoGroupProcessOrFileOutlivesAKilledController) {
  // A forked controller SIGKILLs itself at the first fence. This process
  // becomes the subreaper of its orphans, so it can wait for every group
  // process: all of them must be gone within 5 s, and nothing may remain at
  // the group's shm address.
  const std::string name =
      "isasgd_killed_controller_" + std::to_string(::getpid());
  ClusterSpec spec = process_spec(GetParam());
  spec.bind_address = GetParam() == "tcp" ? "tcp://127.0.0.1:0"
                                          : "shm:///tmp/" + name;
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t controller = ::fork();
  ASSERT_GE(controller, 0);
  if (controller == 0) {
    struct KillAtFirstFence final : solvers::TrainingObserver {
      bool on_epoch(const solvers::TracePoint& point) override {
        if (point.epoch >= 1) ::kill(::getpid(), SIGKILL);
        return true;
      }
    } killer;
    try {
      Fixture fx(120, 40);
      auto opt = small_options();
      opt.epochs = 50;
      (void)run_param_server(data::InMemorySource(fx.data), fx.loss, opt,
                             spec, /*use_importance=*/true,
                             fx.evaluator.as_fn(), nullptr, &killer);
    } catch (...) {
    }
    ::_exit(1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int controller_status = 0;
  bool all_reaped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid == controller) controller_status = status;
    if (pid < 0 && errno == ECHILD) {
      all_reaped = true;
      break;
    }
    if (pid == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!all_reaped) kill_children();  // so a failure leaves no survivor
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  EXPECT_TRUE(all_reaped) << "a group process outlived its controller by 5 s";
  EXPECT_TRUE(WIFSIGNALED(controller_status) &&
              WTERMSIG(controller_status) == SIGKILL)
      << "the controller did not reach its first fence";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(name + ".", 0) == 0) files.push_back(file);
  }
  EXPECT_TRUE(files.empty()) << files.front();
  for (const std::string& file : files) std::filesystem::remove("/tmp/" + file);
}

INSTANTIATE_TEST_SUITE_P(Transports, ControllerKillSuite,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

TEST(PsProcess, TrainsIdentityLeastSquaresToClosedFormOptimum) {
  // Identity design: row i is e_{i mod d} with label y = target[i mod d].
  // The least-squares optimum is w* = target exactly, and each fenced PS
  // step contracts the owning coordinate toward it; 25 epochs at λ=0.5
  // leave an error below 1e-6 per coordinate. A real 1-server/2-worker
  // group must reach it — this is training doing work across processes,
  // not just echoing bytes.
  const std::size_t d = 8, reps = 4;
  std::vector<double> target(d);
  for (std::size_t c = 0; c < d; ++c) {
    target[c] = 0.5 + 0.25 * static_cast<double>(c);
  }
  sparse::CsrBuilder builder(d);
  for (std::size_t i = 0; i < d * reps; ++i) {
    const sparse::index_t c = static_cast<sparse::index_t>(i % d);
    const sparse::value_t one = 1.0;
    builder.add_row(std::span<const sparse::index_t>(&c, 1),
                    std::span<const sparse::value_t>(&one, 1), target[c]);
  }
  const sparse::CsrMatrix data = builder.build();
  objectives::LeastSquaresLoss loss;
  metrics::Evaluator evaluator(data, loss, objectives::Regularization::none(),
                               1);
  solvers::SolverOptions opt;
  opt.step_size = 0.5;
  opt.epochs = 25;
  opt.seed = 7;
  opt.keep_final_model = true;
  const ClusterSpec spec = process_spec("shm");
  const solvers::Trace trace = run_param_server(
      data::InMemorySource(data), loss, opt, spec, /*use_importance=*/false,
      evaluator.as_fn());
  ASSERT_EQ(trace.final_model.size(), d);
  for (std::size_t c = 0; c < d; ++c) {
    EXPECT_NEAR(trace.final_model[c], target[c], 1e-6) << "coordinate " << c;
  }
}

TEST(PsProcess, RegistryDispatchesProcessBackendThroughTrainer) {
  Fixture fx(120, 40);
  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(fx.data)
                                    .objective(fx.loss)
                                    .cluster(process_spec("shm"))
                                    .build();
  auto opt = small_options();
  opt.epochs = 2;
  const solvers::Trace via_trainer = trainer.train("dist.ps.is_asgd", opt);
  ClusterSpec sim = process_spec("shm");
  sim.backend = Backend::kSimulate;
  const core::Trainer sim_trainer = core::TrainerBuilder()
                                        .data(fx.data)
                                        .objective(fx.loss)
                                        .cluster(sim)
                                        .build();
  const solvers::Trace via_sim = sim_trainer.train("dist.ps.is_asgd", opt);
  ASSERT_EQ(via_trainer.final_model.size(), via_sim.final_model.size());
  for (std::size_t j = 0; j < via_trainer.final_model.size(); ++j) {
    ASSERT_EQ(via_trainer.final_model[j], via_sim.final_model[j]);
  }
  // The process trace is real wall clock, the simulated one is not.
  EXPECT_FALSE(via_trainer.simulated_time);
  EXPECT_TRUE(via_sim.simulated_time);
}

TEST(PsProcess, EarlyStopPropagatesToTheGroup) {
  // An observer stopping at epoch 2 must wind the whole process group down
  // cleanly (no hangs, no zombie workers) with exactly 2 recorded epochs.
  struct StopAtTwo final : solvers::TrainingObserver {
    bool on_epoch(const solvers::TracePoint& point) override {
      return point.epoch < 2;
    }
  } stopper;
  Fixture fx(120, 40);
  auto opt = small_options();
  opt.epochs = 50;
  const solvers::Trace trace = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, process_spec("shm"),
      /*use_importance=*/true, fx.evaluator.as_fn(), nullptr, &stopper);
  ASSERT_FALSE(trace.points.empty());
  EXPECT_EQ(trace.points.back().epoch, 2u);
}

TEST(PsProcess, AFailedGroupLeavesNothingAtItsShmAddress) {
  // An observer that throws at the first fence fails the run while the
  // server is mid-epoch: it is killed, never closes its listener, and the
  // group must still leave nothing at its shm address: no control file,
  // and no connection file of a worker that reconnected to the dead server
  // before it was killed itself.
  struct ThrowAtFirstFence final : solvers::TrainingObserver {
    bool on_epoch(const solvers::TracePoint& point) override {
      if (point.epoch >= 1) throw std::runtime_error("observer failed");
      return true;
    }
  } thrower;
  Fixture fx(120, 40);
  const auto opt = small_options();
  const std::string name = "isasgd_failed_group_" + std::to_string(::getpid());
  const std::string prefix = "/tmp/" + name;
  const auto left_behind = [&] {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
      const std::string file = entry.path().filename().string();
      if (file.rfind(name + ".", 0) == 0) files.push_back(file);
    }
    return files;
  };
  ClusterSpec spec = process_spec("shm");
  spec.bind_address = "shm://" + prefix;
  const std::function<void()> runs[] = {
      [&] {
        (void)run_param_server(data::InMemorySource(fx.data), fx.loss, opt,
                               spec, /*use_importance=*/true,
                               fx.evaluator.as_fn(), nullptr, &thrower);
      },
      [&] {
        (void)run_allreduce_sgd(data::InMemorySource(fx.data), fx.loss, opt,
                                spec, /*use_importance=*/false,
                                fx.evaluator.as_fn(), nullptr, &thrower);
      },
  };
  for (const auto& run : runs) {
    EXPECT_THROW(run(), std::runtime_error);
    const std::vector<std::string> files = left_behind();
    EXPECT_TRUE(files.empty()) << files.front();
    for (const std::string& file : files) {
      std::filesystem::remove("/tmp/" + file);
    }
  }
}

TEST(ProcessSpec, ValidationRejectsEventClockProcessAndBadTransport) {
  ClusterSpec spec = process_spec("shm");
  spec.schedule = Schedule::kEventClock;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = process_spec("shm");
  spec.transport = "carrier-pigeon";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = process_spec("shm");
  spec.bind_address = "tcp://127.0.0.1:0";  // scheme/transport mismatch
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = process_spec("tcp");
  spec.bind_address = "tcp://127.0.0.1:0";
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace isasgd::distributed
