// Fault/recovery conformance: the fault-tolerant PS runtime under injected
// wire faults and scripted crashes must still produce the SAME BITS as the
// fenced simulator — per transport — and must still train to the closed-form
// optimum. Wire faults retry against a fault-free sim twin (a single lost,
// duplicated or double-applied push would diverge the model bits, so
// bit-identity IS the exactly-once proof); scripted crashes compare against
// the crash-aware sim mirror running the same FaultScenario through the
// shared plan_assignment re-planning.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/data_source.hpp"
#include "data/synthetic.hpp"
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "distributed/recovery.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/least_squares.hpp"
#include "objectives/logistic.hpp"
#include "ps_inputs.hpp"
#include "sparse/csr_builder.hpp"

namespace isasgd::distributed {
namespace {

// ---- plan_assignment: the shared fence-time re-planning ---------------------

TEST(PlanAssignment, AllAliveIsIdentity) {
  EXPECT_EQ(plan_assignment(3, {1, 1, 1}, RecoveryPolicy::kReshard),
            identity_assignment(3));
  EXPECT_EQ(plan_assignment(3, {1, 1, 1}, RecoveryPolicy::kNone),
            identity_assignment(3));
}

TEST(PlanAssignment, OrphansGoFewestWalksFirstLowestRankOnTies) {
  const Assignment got =
      plan_assignment(4, {1, 0, 1, 0}, RecoveryPolicy::kReshard);
  // Walk 1 → rank 0 (tie on count, lowest rank); walk 3 → rank 2 (now the
  // fewest-loaded survivor).
  const Assignment want = {{0, 1}, {}, {2, 3}, {}};
  EXPECT_EQ(got, want);
}

TEST(PlanAssignment, SingleSurvivorAdoptsEverything) {
  const Assignment got =
      plan_assignment(3, {0, 1, 0}, RecoveryPolicy::kReshard);
  const Assignment want = {{}, {1, 0, 2}, {}};  // home walk first, then
  EXPECT_EQ(got, want);                         // orphans in walk order
}

TEST(PlanAssignment, PolicyNoneLeavesOrphansUnassigned) {
  const Assignment got = plan_assignment(4, {1, 0, 1, 0}, RecoveryPolicy::kNone);
  const Assignment want = {{0}, {}, {2}, {}};
  EXPECT_EQ(got, want);
}

TEST(PlanAssignment, IdempotentInAliveSet) {
  // Re-planning every fence must equal planning once per membership change.
  const std::vector<char> alive = {1, 0, 0, 1, 1};
  const Assignment once = plan_assignment(5, alive, RecoveryPolicy::kReshard);
  EXPECT_EQ(plan_assignment(5, alive, RecoveryPolicy::kReshard), once);
}

TEST(FaultScenario, ValidationNamesTheOffendingField) {
  const auto expect_throw = [](FaultScenario s, std::size_t nodes,
                               const char* field) {
    try {
      s.validate(nodes);
      FAIL() << field << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  FaultScenario s;
  s.crash_epoch = 1;
  expect_throw(s, 1, "nodes");  // a 1-node group has no survivor
  s = {};
  s.crash_epoch = 1;
  s.crash_node = 2;
  expect_throw(s, 2, "crash_node");
  s = {};
  s.crash_epoch = 1;
  s.crash_fraction = 1.0;
  expect_throw(s, 2, "crash_fraction");
  s = {};
  s.crash_epoch = 3;
  s.rejoin_epoch = 3;
  expect_throw(s, 2, "rejoin_epoch");
}

TEST(ClusterSpecFaults, WireFaultsRequireTheProcessBackend) {
  ClusterSpec spec;
  spec.nodes = 2;
  spec.backend = Backend::kSimulate;
  spec.wire_faults.drop_rate = 0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.backend = Backend::kProcess;
  spec.schedule = Schedule::kFencedRoundRobin;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ClusterSpecFaults, AllreduceEnginesRejectFaultInjection) {
  data::SyntheticSpec dspec;
  dspec.rows = 40;
  dspec.dim = 10;
  const sparse::CsrMatrix data = data::generate(dspec);
  objectives::LogisticLoss loss;
  metrics::Evaluator evaluator(data, loss, objectives::Regularization::none(),
                               1);
  solvers::SolverOptions opt;
  opt.epochs = 1;
  ClusterSpec spec;
  spec.nodes = 2;
  spec.fault.crash_node = 0;
  spec.fault.crash_epoch = 1;
  for (const Schedule schedule :
       {Schedule::kEventClock, Schedule::kFencedRoundRobin}) {
    spec.schedule = schedule;
    EXPECT_THROW((void)run_allreduce_sgd(data::InMemorySource(data), loss, opt,
                                         spec, false, evaluator.as_fn()),
                 std::invalid_argument)
        << schedule_name(schedule);
  }
  spec.backend = Backend::kProcess;
  spec.schedule = Schedule::kFencedRoundRobin;
  EXPECT_THROW((void)run_allreduce_sgd(data::InMemorySource(data), loss, opt,
                                       spec, false, evaluator.as_fn()),
               std::invalid_argument);
}

// ---- Real runtime vs sim mirror, per transport ------------------------------

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

  explicit Fixture(std::size_t rows = 120, std::size_t dim = 40)
      : Fixture(synthetic(rows, dim)) {}
  explicit Fixture(sparse::CsrMatrix m)
      : data(std::move(m)),
        evaluator(data, loss, objectives::Regularization::none(), 1) {}
};

solvers::SolverOptions small_options(std::size_t epochs) {
  solvers::SolverOptions opt;
  opt.step_size = 0.3;
  opt.epochs = epochs;
  opt.seed = 1234;
  opt.keep_final_model = true;
  return opt;
}

/// Process-backend spec with CI-friendly recovery deadlines (the defaults
/// are sized for production patience, not test wall clock).
ClusterSpec faulty_spec(const std::string& transport, std::size_t nodes = 2) {
  ClusterSpec spec;
  spec.nodes = nodes;
  spec.backend = Backend::kProcess;
  spec.schedule = Schedule::kFencedRoundRobin;
  spec.transport = transport;
  spec.recovery.reply_timeout_ms = 80;
  spec.recovery.liveness_timeout_ms = 500;
  spec.recovery.fence_reply_timeout_ms = 2000;
  spec.recovery.backoff_initial_ms = 1.0;
  spec.recovery.backoff_max_ms = 10.0;
  return spec;
}

/// The sim twin of `spec`: same scenario/policy, no wire faults (the sim has
/// no wire), simulate backend.
ClusterSpec sim_twin(ClusterSpec spec) {
  spec.backend = Backend::kSimulate;
  spec.wire_faults = net::FaultSpec{};
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
    ASSERT_EQ(real.points[p].objective, sim.points[p].objective)
        << what << ": epoch " << real.points[p].epoch;
  }
}

class FaultRecoverySuite : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultRecoverySuite, WireFaultsRetryToTheFaultFreeBits) {
  // Drops, delays, torn writes and resets on every stream — yet the final
  // model must equal the fault-free simulator's bits exactly. Any lost or
  // twice-applied push breaks this, so passing proves the sequence-numbered
  // retry protocol delivers exactly-once application. Besides the synthetic
  // set it runs on rows that never share a coordinate and on rows that all
  // share one (tests/ps_inputs.hpp), so retransmits meet replies sent both
  // before and after the pushes ahead of their step have landed.
  struct Input {
    const char* name;
    sparse::CsrMatrix (*make)();
  };
  const Input inputs[] = {
      {"synthetic", [] { return synthetic(120, 40); }},
      {"disjoint rows, one empty", [] { return test::disjoint_rows(120); }},
      {"one coordinate in every row",
       [] { return test::shared_coordinate_rows(120); }},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    Fixture fx(in.make());
    const auto opt = small_options(3);
    ClusterSpec spec = faulty_spec(GetParam());
    spec.wire_faults.seed = 2026;
    spec.wire_faults.drop_rate = 0.02;
    spec.wire_faults.delay_rate = 0.04;
    spec.wire_faults.torn_rate = 0.01;
    spec.wire_faults.reset_rate = 0.01;
    spec.wire_faults.max_delay_ms = 2;
    ParamServerReport report;
    const solvers::Trace real = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, spec,
        /*use_importance=*/true, fx.evaluator.as_fn(), &report);
    const solvers::Trace sim = run_param_server(
        data::InMemorySource(fx.data), fx.loss, opt, sim_twin(spec),
        /*use_importance=*/true, fx.evaluator.as_fn());
    expect_bit_identical(real, sim, "wire faults");
    EXPECT_GT(report.wire_retries, 0u)
        << "the schedule injected nothing — rates or seed are off";
  }
}

TEST_P(FaultRecoverySuite, CleanCrashWithReshardMatchesTheSimMirror) {
  Fixture fx;
  const auto opt = small_options(4);
  ClusterSpec spec = faulty_spec(GetParam());
  spec.fault.crash_node = 1;
  spec.fault.crash_epoch = 2;
  spec.fault.crash_fraction = 0.5;
  spec.recovery.policy = RecoveryPolicy::kReshard;
  ParamServerReport real_report;
  const solvers::Trace real = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/true, fx.evaluator.as_fn(), &real_report);
  ParamServerReport sim_report;
  const solvers::Trace sim = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, sim_twin(spec),
      /*use_importance=*/true, fx.evaluator.as_fn(), &sim_report);
  expect_bit_identical(real, sim, "crash+reshard");
  EXPECT_EQ(real_report.crash_events, 1u);
  EXPECT_EQ(real_report.rejoin_events, 0u);
  EXPECT_EQ(sim_report.crash_events, 1u);
}

TEST_P(FaultRecoverySuite, CrashThenRejoinMatchesTheSimMirror) {
  Fixture fx;
  const auto opt = small_options(5);
  ClusterSpec spec = faulty_spec(GetParam());
  spec.fault.crash_node = 1;
  spec.fault.crash_epoch = 2;
  spec.fault.crash_fraction = 0.25;
  spec.fault.rejoin_epoch = 4;
  spec.recovery.policy = RecoveryPolicy::kReshard;
  ParamServerReport real_report;
  const solvers::Trace real = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/true, fx.evaluator.as_fn(), &real_report);
  ParamServerReport sim_report;
  const solvers::Trace sim = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, sim_twin(spec),
      /*use_importance=*/true, fx.evaluator.as_fn(), &sim_report);
  expect_bit_identical(real, sim, "crash+rejoin");
  EXPECT_EQ(real_report.crash_events, 1u);
  EXPECT_EQ(real_report.rejoin_events, 1u);
  EXPECT_EQ(sim_report.rejoin_events, 1u);
}

TEST_P(FaultRecoverySuite, PolicyNoneAlsoMatchesItsSimMirror) {
  // Without resharding the dead walk simply stops contributing — a worse
  // model, but still a deterministic one the sim reproduces exactly.
  Fixture fx;
  const auto opt = small_options(4);
  ClusterSpec spec = faulty_spec(GetParam());
  spec.fault.crash_node = 0;
  spec.fault.crash_epoch = 2;
  spec.recovery.policy = RecoveryPolicy::kNone;
  const solvers::Trace real = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, spec,
      /*use_importance=*/true, fx.evaluator.as_fn());
  const solvers::Trace sim = run_param_server(
      data::InMemorySource(fx.data), fx.loss, opt, sim_twin(spec),
      /*use_importance=*/true, fx.evaluator.as_fn());
  expect_bit_identical(real, sim, "crash+none");
}

TEST_P(FaultRecoverySuite, CrashedGroupStillReachesClosedFormOptimum) {
  // Identity design: w* = target exactly (see dist_process_test). A group
  // that loses worker 1 halfway through epoch 3 and reshards must still
  // drive every coordinate to the optimum — recovery doing real work.
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
  opt.epochs = 20;
  opt.seed = 7;
  opt.keep_final_model = true;
  ClusterSpec spec = faulty_spec(GetParam());
  spec.fault.crash_node = 1;
  spec.fault.crash_epoch = 3;
  spec.recovery.policy = RecoveryPolicy::kReshard;
  const solvers::Trace trace = run_param_server(
      data::InMemorySource(data), loss, opt, spec, /*use_importance=*/false,
      evaluator.as_fn());
  ASSERT_EQ(trace.final_model.size(), d);
  for (std::size_t c = 0; c < d; ++c) {
    EXPECT_NEAR(trace.final_model[c], target[c], 1e-2) << "coordinate " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, FaultRecoverySuite,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

// ---- Event-clock mirror -----------------------------------------------------

TEST(EventClockFaults, CrashAndRejoinAreDeterministicAndReported) {
  Fixture fx;
  const auto opt = small_options(5);
  ClusterSpec spec;
  spec.nodes = 3;
  spec.fault.crash_node = 2;
  spec.fault.crash_epoch = 2;
  spec.fault.rejoin_epoch = 4;
  spec.recovery.policy = RecoveryPolicy::kReshard;
  ParamServerReport report;
  const solvers::Trace a = run_param_server(data::InMemorySource(fx.data),
                                            fx.loss, opt, spec,
                                            /*use_importance=*/true,
                                            fx.evaluator.as_fn(), &report);
  EXPECT_EQ(report.crash_events, 1u);
  EXPECT_EQ(report.rejoin_events, 1u);
  ASSERT_GE(a.points.size(), 2u);
  EXPECT_LT(a.points.back().objective, a.points.front().objective);
  const solvers::Trace b = run_param_server(data::InMemorySource(fx.data),
                                            fx.loss, opt, spec,
                                            /*use_importance=*/true,
                                            fx.evaluator.as_fn());
  ASSERT_EQ(a.final_model.size(), b.final_model.size());
  for (std::size_t j = 0; j < a.final_model.size(); ++j) {
    ASSERT_EQ(a.final_model[j], b.final_model[j]) << "coordinate " << j;
  }
}

TEST(EventClockFaults, NoFaultRunIsUntouchedByTheRefactor) {
  // The crash-aware executor/walk split must be invisible when no scenario
  // is active: crash/rejoin counters zero, objective still training.
  Fixture fx;
  const auto opt = small_options(3);
  ClusterSpec spec;
  spec.nodes = 4;
  ParamServerReport report;
  const solvers::Trace trace = run_param_server(data::InMemorySource(fx.data),
                                                fx.loss, opt, spec,
                                                /*use_importance=*/true,
                                                fx.evaluator.as_fn(), &report);
  EXPECT_EQ(report.crash_events, 0u);
  EXPECT_EQ(report.rejoin_events, 0u);
  EXPECT_LT(trace.points.back().objective, trace.points.front().objective);
}

}  // namespace
}  // namespace isasgd::distributed
