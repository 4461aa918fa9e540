// The simulators on the fenced round-robin schedule
// (Schedule::kFencedRoundRobin): determinism, convergence, and report
// semantics. These runs are the reference half of the bit-identity contract
// exercised end-to-end by dist_process_test.cpp — here we pin down the
// simulator itself.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/synthetic.hpp"
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/logistic.hpp"
#include "trace_pin.hpp"

namespace isasgd::distributed {
namespace {

struct Fixture {
  sparse::CsrMatrix data;
  objectives::LogisticLoss loss;
  metrics::Evaluator evaluator;

  explicit Fixture(std::size_t rows = 400, std::size_t dim = 80)
      : data([&] {
          data::SyntheticSpec spec;
          spec.rows = rows;
          spec.dim = dim;
          spec.mean_row_nnz = 6;
          spec.target_psi = 0.85;
          spec.label_noise = 0.02;
          return data::generate(spec);
        }()),
        evaluator(data, loss, objectives::Regularization::none(), 1) {}
};

solvers::SolverOptions base_options() {
  solvers::SolverOptions opt;
  opt.step_size = 0.3;
  opt.epochs = 4;
  opt.seed = 42;
  opt.keep_final_model = true;
  return opt;
}

ClusterSpec fenced_spec(std::size_t nodes = 3) {
  ClusterSpec spec;
  spec.nodes = nodes;
  spec.schedule = Schedule::kFencedRoundRobin;
  return spec;
}

TEST(FencedPs, SameSeedIsBitIdenticalAcrossRuns) {
  Fixture fx;
  const auto opt = base_options();
  const auto spec = fenced_spec();
  const solvers::Trace a = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/true, fx.evaluator.as_fn());
  const solvers::Trace b = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/true, fx.evaluator.as_fn());
  ASSERT_EQ(a.final_model.size(), b.final_model.size());
  for (std::size_t j = 0; j < a.final_model.size(); ++j) {
    ASSERT_EQ(a.final_model[j], b.final_model[j]) << "coordinate " << j;
  }
}

TEST(FencedPs, DifferentSeedsDiverge) {
  Fixture fx;
  auto opt = base_options();
  const auto spec = fenced_spec();
  const solvers::Trace a = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec, true,
      fx.evaluator.as_fn());
  opt.seed = 43;
  const solvers::Trace b = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec, true,
      fx.evaluator.as_fn());
  EXPECT_NE(a.final_model, b.final_model);
}

TEST(FencedPs, ConvergesAndReportsZeroStaleness) {
  Fixture fx;
  auto opt = base_options();
  opt.epochs = 8;
  ParamServerReport report;
  const solvers::Trace trace = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, fenced_spec(),
      /*use_importance=*/true, fx.evaluator.as_fn(), &report);
  ASSERT_GE(trace.points.size(), 2u);
  EXPECT_LT(trace.points.back().objective, trace.points.front().objective);
  // Fenced semantics: every gradient is computed against the model it is
  // applied to.
  EXPECT_EQ(report.mean_staleness_updates, 0.0);
  // One push per drawn sample, k nodes × epochs × per-node quota = n·epochs.
  EXPECT_EQ(report.messages, opt.epochs * fx.data.rows());
  EXPECT_TRUE(trace.simulated_time);
}

TEST(FencedPs, ShardedSourceMatchesDeterministically) {
  Fixture fx;
  const data::InMemorySource chunked(fx.data, /*shard_rows=*/64);
  metrics::Evaluator ev(chunked, fx.loss, objectives::Regularization::none(),
                        1);
  const auto opt = base_options();
  const auto spec = fenced_spec();
  const solvers::Trace a = run_param_server(
      chunked, fx.loss, opt, spec, /*use_importance=*/true, ev.as_fn());
  const solvers::Trace b = run_param_server(
      chunked, fx.loss, opt, spec, /*use_importance=*/true, ev.as_fn());
  ASSERT_FALSE(a.final_model.empty());
  EXPECT_EQ(a.final_model, b.final_model);
}

TEST(FencedAllreduce, SameSeedIsBitIdenticalAndConverges) {
  Fixture fx;
  auto opt = base_options();
  opt.batch_size = 8;
  opt.epochs = 8;
  const auto spec = fenced_spec();
  AllreduceReport ra;
  const solvers::Trace a = run_allreduce_sgd(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/false, fx.evaluator.as_fn(), &ra);
  AllreduceReport rb;
  const solvers::Trace b = run_allreduce_sgd(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/false, fx.evaluator.as_fn(), &rb);
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_GT(ra.rounds, 0u);
  EXPECT_LT(a.points.back().objective, a.points.front().objective);
}

TEST(FencedPs, RegistryDispatchesFencedScheduleThroughTrainer) {
  Fixture fx(200, 50);
  const auto spec = fenced_spec(2);
  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(fx.data)
                                    .objective(fx.loss)
                                    .cluster(spec)
                                    .eval_threads(1)
                                    .build();
  auto opt = base_options();
  opt.epochs = 2;
  const solvers::Trace via_trainer = trainer.train("dist.ps.is_asgd", opt);
  metrics::Evaluator ev(fx.data, fx.loss, objectives::Regularization::none(),
                        1);
  const solvers::Trace direct = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/true, ev.as_fn());
  EXPECT_EQ(via_trainer.final_model, direct.final_model);
}

// The FencedPins rows of the parameter server on the 7-shard chunked
// source, which the process group reproduces too (ProcessGroupPins).
constexpr const char* kPsIsChunkedPin =
    "model=b84f509fff4a72df 0x0p+0/0x1.62e42fefa39eep-1 "
    "0x1.48273548ee22p-6/0x1.0655b54465143p-1 "
    "0x1.48278675b3323p-5/0x1.b53eedf2f16b3p-2 "
    "0x1.ec3d601748c59p-5/0x1.7a2f24abe27b6p-2 | messages=1200 bytes=83676 "
    "staleness=0x0p+0 sim=0x1.ec3d601748c59p-5 phi=0x1.7a921ea65fca1p-1 "
    "strategy=2 crashes=0 rejoins=0";
constexpr const char* kPsUniformChunkedPin =
    "model=33403d5589b85717 0x0p+0/0x1.62e42fefa39eep-1 "
    "0x1.482eb66c7b371p-6/0x1.0772e9ebe013ap-1 "
    "0x1.482f07994047cp-5/0x1.b6b5559fc104ap-2 "
    "0x1.ec4257d4ad612p-5/0x1.80bea40b391f2p-2 | messages=1200 bytes=85932 "
    "staleness=0x0p+0 sim=0x1.ec4257d4ad612p-5 phi=0x1.6500e36d33ed8p-1 "
    "strategy=1 crashes=0 rejoins=0";

// Each row fixes one fenced configuration's exact output (trace_pin.hpp).
// These bits are also what the process backend must reproduce, so a row
// that moves breaks real-vs-simulated parity too.
TEST(FencedPins, EveryEngineShapeReproducesItsPinnedBits) {
  const Fixture fx;
  const data::InMemorySource whole(fx.data);
  const data::InMemorySource chunked(fx.data, /*shard_rows=*/64);  // 7 shards
  ASSERT_EQ(chunked.shard_count(), 7u);
  const ClusterSpec spec = fenced_spec();
  ClusterSpec crash = spec;
  crash.fault.crash_node = 1;
  crash.fault.crash_epoch = 2;
  crash.fault.crash_fraction = 0.25;
  crash.fault.rejoin_epoch = 4;
  crash.recovery.policy = RecoveryPolicy::kReshard;
  // A straggler crash: the adopter of the slow node's walk computes at its
  // own speed, so the row fixes which node is charged for an adopted walk.
  ClusterSpec straggler = spec;
  straggler.node_speed = {1.0, 0.5, 2.0};
  straggler.fault.crash_node = 1;
  straggler.fault.crash_epoch = 2;
  straggler.fault.crash_fraction = 0.25;
  straggler.recovery.policy = RecoveryPolicy::kReshard;
  auto opt = base_options();
  opt.epochs = 3;
  auto crash_opt = base_options();
  crash_opt.epochs = 5;
  const auto straggler_opt = base_options();  // 4 epochs
  auto ar_opt = opt;
  ar_opt.batch_size = 8;

  struct Row {
    const char* name;
    std::function<std::string()> run;
    const char* pin;
  };
  const Row rows[] = {
      {"ps.is in-memory",
       [&] { return pin::registry_run(whole, fx.loss, "dist.ps.is_asgd", spec,
                                      opt); },
       "model=047f392511cc54a7 0x0p+0/0x1.62e42fefa39fcp-1 "
       "0x1.482dc2e62c093p-6/0x1.0a18b75d79f4dp-1 "
       "0x1.482d7f40dd286p-5/0x1.b628e37b96ebbp-2 "
       "0x1.ec41d08a0f9d3p-5/0x1.7b2dfb45ab641p-2 | messages=1200 bytes=85692 "
       "staleness=0x0p+0 sim=0x1.ec41d08a0f9d3p-5 phi=0x1.84a4ed9fc94a9p-3 "
       "strategy=2 crashes=0 rejoins=0"},
      {"ps.uniform in-memory",
       [&] { return pin::registry_run(whole, fx.loss, "dist.ps.asgd", spec,
                                      opt); },
       "model=0cfcffb86919f3aa 0x0p+0/0x1.62e42fefa39fcp-1 "
       "0x1.48275057da7c8p-6/0x1.07a451ef8e056p-1 "
       "0x1.4829d2fa47e1dp-5/0x1.b4722edd77e23p-2 "
       "0x1.ec41c302996f8p-5/0x1.7c8776f33bc46p-2 | messages=1200 bytes=85668 "
       "staleness=0x0p+0 sim=0x1.ec41c302996f8p-5 phi=0x1.13bcbfd9834e7p-4 "
       "strategy=1 crashes=0 rejoins=0"},
      {"ps.is chunked",
       [&] { return pin::registry_run(chunked, fx.loss, "dist.ps.is_asgd",
                                      spec, opt); },
       kPsIsChunkedPin},
      {"ps.uniform chunked",
       [&] { return pin::registry_run(chunked, fx.loss, "dist.ps.asgd", spec,
                                      opt); },
       kPsUniformChunkedPin},
      {"ps.is crash+rejoin reshard",
       [&] { return pin::registry_run(whole, fx.loss, "dist.ps.is_asgd", crash,
                                      crash_opt); },
       "model=9ab5acaea3f65c98 0x0p+0/0x1.62e42fefa39fcp-1 "
       "0x1.482dc2e62c093p-6/0x1.0a18b75d79f4dp-1 "
       "0x1.1f291fe25d287p-5/0x1.cd15cadc9f63ap-2 "
       "0x1.c33dc91c0fc2fp-5/0x1.899d1e3de3576p-2 "
       "0x1.33a9796e5286ep-4/0x1.5ef67f919366fp-2 "
       "0x1.85b45555c99abp-4/0x1.42bce2ce5b448p-2 | messages=1900 "
       "bytes=135888 staleness=0x0p+0 sim=0x1.85b45555c99abp-4 "
       "phi=0x1.84a4ed9fc94a9p-3 strategy=2 crashes=1 rejoins=1"},
      {"ps.is straggler crash reshard",
       [&] { return pin::registry_run(whole, fx.loss, "dist.ps.is_asgd",
                                      straggler, straggler_opt); },
       "model=f6dc0d02821c4536 0x0p+0/0x1.62e42fefa39fcp-1 "
       "0x1.48311de47f60cp-6/0x1.0a18b75d79f4dp-1 "
       "0x1.1f29df02a19edp-5/0x1.cd15cadc9f63ap-2 "
       "0x1.c33cd19cb43aep-5/0x1.899d1e3de3576p-2 "
       "0x1.33a81bed904bbp-4/0x1.5efa38e30ac23p-2 | messages=1500 "
       "bytes=107424 staleness=0x0p+0 sim=0x1.33a81bed904bbp-4 "
       "phi=0x1.84a4ed9fc94a9p-3 strategy=2 crashes=1 rejoins=0"},
      {"allreduce.uniform",
       [&] { return pin::registry_run(whole, fx.loss, "dist.allreduce.sgd",
                                      spec, ar_opt); },
       "model=218e13200441ca7d 0x0p+0/0x1.62e42fefa39fcp-1 "
       "0x1.bf67aeb52ef0bp-9/0x1.5d630060ad036p-1 "
       "0x1.bf6851eaa00e1p-8/0x1.575c4cfcf5ca4p-1 "
       "0x1.4f8e550f4869bp-7/0x1.51ed07d794168p-1 | rounds=51 "
       "bytes=0x1.aaaaaaaaaaaaap+9 sim=0x1.4f8e550f4869bp-7 "
       "comm=0x1.ffb91728ba716p-1"},
      {"allreduce.is",
       [&] {
         AllreduceReport report;
         const solvers::Trace t = run_allreduce_sgd(
             data::InMemorySource(fx.data), fx.loss, ar_opt, spec,
             /*use_importance=*/true, fx.evaluator.as_fn(), &report);
         return pin::of(t, report);
       },
       "model=922334dcd85b021f 0x0p+0/0x1.62e42fefa39fcp-1 "
       "0x1.bf64cbf92ef2p-9/0x1.5d174be014aa6p-1 "
       "0x1.bf64ee5546c27p-8/0x1.571b3a8fa17c5p-1 "
       "0x1.4f8cbd09ada04p-7/0x1.51b37dfb5c5a3p-1 | rounds=51 "
       "bytes=0x1.aaaaaaaaaaaaap+9 sim=0x1.4f8cbd09ada04p-7 "
       "comm=0x1.ffbb856778d38p-1"},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.run(), row.pin) << row.name;
  }
}

/// A pin's model hash and fence objectives: what a process run shares with
/// the simulator's pin (its times are wall-clock, not simulated).
std::string model_and_objectives(const std::string& pin) {
  std::istringstream points(pin.substr(0, pin.find(" | ")));
  std::string out, point;
  points >> out;  // model=...
  while (points >> point) out += " " + point.substr(point.find('/') + 1);
  return out;
}

class ProcessGroupPins : public ::testing::TestWithParam<std::string> {};

TEST_P(ProcessGroupPins, RegistryRunOnTheChunkedSourceHitsThePins) {
  // Through the registry, a forked group deals the chunked source's whole
  // shards to its nodes as the simulator does, so it reproduces the
  // simulator's chunked pins, not the in-memory rows.
  const Fixture fx;
  const data::InMemorySource chunked(fx.data, /*shard_rows=*/64);
  ClusterSpec spec = fenced_spec();
  spec.backend = Backend::kProcess;
  spec.transport = GetParam();
  auto opt = base_options();
  opt.epochs = 3;
  EXPECT_EQ(model_and_objectives(pin::registry_run(
                chunked, fx.loss, "dist.ps.is_asgd", spec, opt)),
            model_and_objectives(kPsIsChunkedPin));
  EXPECT_EQ(model_and_objectives(pin::registry_run(chunked, fx.loss,
                                                   "dist.ps.asgd", spec, opt)),
            model_and_objectives(kPsUniformChunkedPin));
}

INSTANTIATE_TEST_SUITE_P(Transports, ProcessGroupPins,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace isasgd::distributed
