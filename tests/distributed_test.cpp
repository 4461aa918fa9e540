#include <gtest/gtest.h>

#include <unistd.h>

#include <any>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/streaming_source.hpp"
#include "data/synthetic.hpp"
#include "io/binary.hpp"
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/logistic.hpp"
#include "trace_pin.hpp"

namespace isasgd::distributed {
namespace {

using metrics::Evaluator;

struct Fixture {
  sparse::CsrMatrix data;
  objectives::LogisticLoss loss;
  Evaluator evaluator;

  explicit Fixture(std::size_t rows = 1200, std::size_t dim = 400,
                   double nnz = 10, double psi = 0.9)
      : data([&] {
          data::SyntheticSpec spec;
          spec.rows = rows;
          spec.dim = dim;
          spec.mean_row_nnz = nnz;
          spec.target_psi = psi;
          spec.label_noise = 0.02;
          return data::generate(spec);
        }()),
        evaluator(data, loss, objectives::Regularization::none(), 4) {}
};

solvers::SolverOptions base_options(std::size_t epochs = 5,
                                    double lambda = 0.5) {
  solvers::SolverOptions opt;
  opt.step_size = lambda;
  opt.epochs = epochs;
  opt.seed = 99;
  return opt;
}

// ---------- ClusterSpec cost model ----------

TEST(ClusterSpec, ValidatesParameters) {
  ClusterSpec bad;
  bad.nodes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ClusterSpec{};
  bad.bandwidth_bytes_per_second = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ClusterSpec{};
  bad.bytes_per_nnz = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ClusterSpec{}.validate());
}

TEST(ClusterSpec, ValidationNamesTheOffendingField) {
  // One validation implementation, and its message points at the field —
  // the operator should never have to bisect a spec by hand.
  auto message_for = [](auto&& mutate) {
    ClusterSpec spec;
    mutate(spec);
    try {
      spec.validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("(no throw)");
  };
  EXPECT_NE(message_for([](ClusterSpec& s) { s.nodes = 0; }).find("nodes"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.latency_seconds = -1; })
                .find("latency_seconds"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) {
              s.bandwidth_bytes_per_second = 0;
            }).find("bandwidth_bytes_per_second"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.compute_seconds_per_nnz = 0; })
                .find("compute_seconds_per_nnz"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.apply_seconds_per_nnz = -1; })
                .find("apply_seconds_per_nnz"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.bytes_per_nnz = 0; })
                .find("bytes_per_nnz"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.bytes_per_dense_coord = 0; })
                .find("bytes_per_dense_coord"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.max_outstanding_pushes = 0; })
                .find("max_outstanding_pushes"),
            std::string::npos);
  EXPECT_NE(message_for([](ClusterSpec& s) { s.node_speed = {1.0}; })
                .find("node_speed"),
            std::string::npos);
  // NaN rates are as nonsensical as non-positive ones.
  EXPECT_NE(message_for([](ClusterSpec& s) {
              s.compute_seconds_per_nnz = std::nan("");
            }).find("compute_seconds_per_nnz"),
            std::string::npos);
}

TEST(ClusterSpec, BuilderValidatesAtConfigurationTime) {
  // TrainerBuilder::cluster is the single configuration checkpoint: a bad
  // spec is rejected at build(), long before any solver runs.
  Fixture f(100, 40, 5);
  ClusterSpec bad;
  bad.nodes = 0;
  try {
    (void)core::TrainerBuilder()
        .data(f.data)
        .objective(f.loss)
        .cluster(bad)
        .build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos);
  }
}

TEST(ClusterSpec, MessageCostIsLatencyPlusBytes) {
  ClusterSpec spec;
  spec.latency_seconds = 1e-4;
  spec.bandwidth_bytes_per_second = 1e6;
  EXPECT_NEAR(spec.message_seconds(1000), 1e-4 + 1e-3, 1e-12);
  EXPECT_NEAR(spec.sparse_push_seconds(10),
              1e-4 + 10.0 * spec.bytes_per_nnz / 1e6, 1e-12);
}

TEST(ClusterSpec, SparsePushIsOrdersCheaperThanDenseAllreduce) {
  // The §1.2 argument at cluster scale: an index-compressed push of ~10 nnz
  // vs a ring all-reduce of a d = 1e6 dense vector.
  ClusterSpec spec;
  spec.nodes = 8;
  const double push = spec.sparse_push_seconds(10);
  const double reduce = spec.ring_allreduce_seconds(1'000'000);
  EXPECT_GT(reduce / push, 100.0);
}

TEST(ClusterSpec, RingAllreduceScalesWithDimension) {
  ClusterSpec spec;
  spec.nodes = 4;
  spec.latency_seconds = 0;  // isolate the bandwidth term
  const double small = spec.ring_allreduce_seconds(1000);
  const double large = spec.ring_allreduce_seconds(100000);
  EXPECT_NEAR(large / small, 100.0, 1e-6);
  ClusterSpec single;
  single.nodes = 1;
  EXPECT_DOUBLE_EQ(single.ring_allreduce_seconds(5000), 0.0);
}

TEST(ClusterSpec, ComputeCostLinearInNnz) {
  ClusterSpec spec;
  EXPECT_NEAR(spec.compute_seconds(50), 50 * spec.compute_seconds_per_nnz,
              1e-18);
}

// ---------- Parameter server ----------

TEST(ParamServer, ConvergesOnClassification) {
  Fixture f;
  ClusterSpec spec;
  spec.nodes = 4;
  const solvers::Trace t = run_param_server(data::InMemorySource(f.data),
                                            f.loss, base_options(8), spec, true,
                                            f.evaluator.as_fn());
  ASSERT_EQ(t.points.size(), 9u);
  EXPECT_LT(t.points.back().rmse, 0.62 * t.points.front().rmse);
  EXPECT_LT(t.best_error_rate(), 0.15);
  EXPECT_EQ(t.algorithm, "ps_is_asgd");
}

TEST(ParamServer, UniformVariantConvergesToo) {
  Fixture f;
  ClusterSpec spec;
  spec.nodes = 4;
  const solvers::Trace t = run_param_server(data::InMemorySource(f.data),
                                            f.loss, base_options(8), spec,
                                            false, f.evaluator.as_fn());
  EXPECT_LT(t.points.back().rmse, 0.62 * t.points.front().rmse);
  EXPECT_EQ(t.algorithm, "ps_asgd");
}

TEST(ParamServer, AppliesEveryUpdateEachEpoch) {
  Fixture f(600, 200, 8);
  ClusterSpec spec;
  spec.nodes = 3;
  ParamServerReport report;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(4),
                         spec, true, f.evaluator.as_fn(), &report);
  EXPECT_EQ(report.messages, 4u * 600u);
  EXPECT_GT(report.bytes_sent, 0u);
  EXPECT_GT(report.simulated_seconds, 0.0);
}

TEST(ParamServer, StalenessGrowsWithNodeCount) {
  // The emergent τ tracks the concurrency, the paper's "τ is linearly
  // related to the concurrency" assumption — now measured, not assumed.
  Fixture f(1000, 300, 10);
  std::vector<double> staleness;
  for (std::size_t nodes : {2u, 4u, 8u}) {
    ClusterSpec spec;
    spec.nodes = nodes;
    ParamServerReport report;
    (void)run_param_server(data::InMemorySource(f.data), f.loss,
                           base_options(2), spec, true, f.evaluator.as_fn(),
                           &report);
    staleness.push_back(report.mean_staleness_updates);
  }
  EXPECT_LT(staleness[0], staleness[1]);
  EXPECT_LT(staleness[1], staleness[2]);
}

TEST(ParamServer, SlowNetworkStretchesSimTimeNotStaleness) {
  // With flow control, staleness in *update counts* is pinned by the send
  // window (≈ nodes × window) whatever the latency; the latency shows up in
  // simulated seconds instead. Both facets pinned here.
  Fixture f(800, 300, 10);
  ClusterSpec fast;
  fast.nodes = 4;
  ClusterSpec slow = fast;
  slow.latency_seconds = 100 * fast.latency_seconds;
  ParamServerReport fast_report, slow_report;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         fast, true, f.evaluator.as_fn(), &fast_report);
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         slow, true, f.evaluator.as_fn(), &slow_report);
  EXPECT_GT(slow_report.simulated_seconds, 10 * fast_report.simulated_seconds);
  const double window_bound =
      static_cast<double>(fast.nodes * fast.max_outstanding_pushes);
  EXPECT_LE(fast_report.mean_staleness_updates, window_bound);
  EXPECT_LE(slow_report.mean_staleness_updates, window_bound);
}

TEST(ParamServer, WiderSendWindowRaisesStaleness) {
  Fixture f(800, 300, 10);
  ClusterSpec narrow;
  narrow.nodes = 4;
  narrow.max_outstanding_pushes = 1;
  ClusterSpec wide = narrow;
  wide.max_outstanding_pushes = 32;
  ParamServerReport narrow_report, wide_report;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         narrow, true, f.evaluator.as_fn(), &narrow_report);
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         wide, true, f.evaluator.as_fn(), &wide_report);
  EXPECT_GT(wide_report.mean_staleness_updates,
            2 * narrow_report.mean_staleness_updates);
  // The wider pipeline hides latency: more throughput, less simulated time.
  EXPECT_LT(wide_report.simulated_seconds, narrow_report.simulated_seconds);
}

TEST(ParamServer, MoreNodesFinishSoonerInSimTime) {
  // Near-linear speedup regime: compute dominates at default prices.
  Fixture f(2000, 500, 12);
  double prev = 1e100;
  for (std::size_t nodes : {1u, 4u, 16u}) {
    ClusterSpec spec;
    spec.nodes = nodes;
    ParamServerReport report;
    (void)run_param_server(data::InMemorySource(f.data), f.loss,
                           base_options(2), spec, true, f.evaluator.as_fn(),
                           &report);
    EXPECT_LT(report.simulated_seconds, prev) << nodes << " nodes";
    prev = report.simulated_seconds;
  }
}

TEST(ParamServer, ImportanceBalancingEqualizesNodePhis) {
  // High-ρ data: the balanced partition's Φ spread must be far tighter than
  // a raw shuffle's (the §2.3/2.4 story at node granularity).
  data::SyntheticSpec spec;
  spec.rows = 400;
  spec.dim = 200;
  spec.mean_row_nnz = 8;
  spec.target_psi = 0.6;  // wide Lipschitz spread
  const auto data = data::generate(spec);
  objectives::LogisticLoss loss;
  Evaluator evaluator(data, loss, objectives::Regularization::none(), 2);
  ClusterSpec cluster;
  cluster.nodes = 8;

  auto opt = base_options(1);
  opt.partition.strategy = partition::Strategy::kGreedyLpt;
  ParamServerReport balanced;
  (void)run_param_server(data::InMemorySource(data), loss, opt, cluster, true,
                         evaluator.as_fn(), &balanced);
  opt.partition.strategy = partition::Strategy::kNone;
  ParamServerReport raw;
  (void)run_param_server(data::InMemorySource(data), loss, opt, cluster, true,
                         evaluator.as_fn(), &raw);
  EXPECT_EQ(balanced.applied_strategy, partition::Strategy::kGreedyLpt);
  EXPECT_LT(balanced.phi_imbalance, 0.5 * raw.phi_imbalance);
  EXPECT_LT(balanced.phi_imbalance, 0.05);
}

TEST(ParamServer, DeterministicForFixedSeed) {
  Fixture f(500, 150, 8);
  ClusterSpec spec;
  spec.nodes = 4;
  auto opt = base_options(3);
  opt.keep_final_model = true;
  const solvers::Trace a =
      run_param_server(data::InMemorySource(f.data), f.loss, opt, spec, true,
                       f.evaluator.as_fn());
  const solvers::Trace b =
      run_param_server(data::InMemorySource(f.data), f.loss, opt, spec, true,
                       f.evaluator.as_fn());
  ASSERT_EQ(a.final_model.size(), b.final_model.size());
  for (std::size_t j = 0; j < a.final_model.size(); ++j) {
    ASSERT_EQ(a.final_model[j], b.final_model[j]);
  }
  EXPECT_DOUBLE_EQ(a.train_seconds, b.train_seconds);
}

// ---------- All-reduce ----------

TEST(Allreduce, ConvergesOnClassification) {
  Fixture f;
  ClusterSpec spec;
  spec.nodes = 4;
  // A round averages k·b gradients into one λ step, so per-sample progress
  // is b·k× slower than sequential SGD; keep the batch small and run longer.
  auto opt = base_options(10, 1.0);
  opt.batch_size = 2;
  const solvers::Trace t =
      run_allreduce_sgd(data::InMemorySource(f.data), f.loss, opt, spec, false,
                        f.evaluator.as_fn());
  EXPECT_LT(t.points.back().rmse, 0.75 * t.points.front().rmse);
  EXPECT_EQ(t.algorithm, "allreduce_sgd");
}

TEST(Allreduce, RoundCountMatchesQuota) {
  Fixture f(600, 100, 8);
  ClusterSpec spec;
  spec.nodes = 4;
  auto opt = base_options(3);
  opt.batch_size = 5;  // 4 nodes × 5 = 20 samples/round → 30 rounds/epoch
  AllreduceReport report;
  (void)run_allreduce_sgd(data::InMemorySource(f.data), f.loss, opt, spec,
                          false, f.evaluator.as_fn(), &report);
  EXPECT_EQ(report.rounds, 3u * 30u);
  EXPECT_GT(report.comm_fraction, 0.0);
  EXPECT_LT(report.comm_fraction, 1.0);
}

TEST(Allreduce, CommunicationShareGrowsWithDimension) {
  // The dense collective's cost is Θ(d) while compute is Θ(nnz): as d rises
  // at fixed nnz the simulated run becomes communication-bound.
  ClusterSpec spec;
  spec.nodes = 4;
  std::vector<double> frac;
  for (std::size_t dim : {200u, 20000u}) {
    Fixture f(400, dim, 8);
    AllreduceReport report;
    (void)run_allreduce_sgd(data::InMemorySource(f.data), f.loss,
                            base_options(1), spec, false, f.evaluator.as_fn(),
                            &report);
    frac.push_back(report.comm_fraction);
  }
  EXPECT_GT(frac[1], frac[0]);
}

// ---------- heterogeneous node speeds (stragglers) ----------

TEST(ClusterSpec, ValidatesNodeSpeeds) {
  ClusterSpec spec;
  spec.nodes = 3;
  spec.node_speed = {1.0, 2.0};  // wrong arity
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.node_speed = {1.0, 0.0, 1.0};  // non-positive
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.node_speed = {1.0, 2.0, 0.5};
  EXPECT_NO_THROW(spec.validate());
  EXPECT_DOUBLE_EQ(spec.speed(2), 0.5);
  EXPECT_DOUBLE_EQ(spec.node_compute_seconds(2, 10),
                   2.0 * spec.compute_seconds(10));
  spec.node_speed.clear();
  EXPECT_DOUBLE_EQ(spec.speed(2), 1.0);
}

TEST(Straggler, NetworkBoundRegimeHidesComputeStragglers) {
  // Under the default prices a gradient costs ~20 ns while a round trip is
  // ~100 µs: every worker spends its life stalled on the flow-control
  // window, so a 4x compute slowdown on one node is *invisible* — the
  // network, not the CPU, sets the pace. Pin that insensitivity.
  Fixture f(1200, 5000, 10);
  ClusterSpec uniform;
  uniform.nodes = 4;
  ClusterSpec straggler = uniform;
  straggler.node_speed = {1.0, 1.0, 1.0, 0.25};
  ParamServerReport ps_uniform, ps_straggler;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         uniform, true, f.evaluator.as_fn(), &ps_uniform);
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         straggler, true, f.evaluator.as_fn(), &ps_straggler);
  EXPECT_NEAR(ps_straggler.simulated_seconds / ps_uniform.simulated_seconds,
              1.0, 0.1);
}

/// Compute-bound prices: gradients cost microseconds, messages ~nothing.
ClusterSpec compute_bound_cluster() {
  ClusterSpec spec;
  spec.nodes = 4;
  spec.latency_seconds = 1e-7;
  spec.compute_seconds_per_nnz = 1e-6;  // 10 nnz → 10 µs per gradient
  return spec;
}

TEST(Straggler, ComputeBoundRegimeIsStragglerBoundInBothSolvers) {
  // With equal static shards the epoch cannot end before the slow node
  // finishes its quota — *neither* solver escapes a 4x compute straggler
  // (asynchrony reorders work, it does not rebalance it). This measurement
  // is what motivates speed-weighted sharding.
  Fixture f(1200, 5000, 10);
  const ClusterSpec uniform = compute_bound_cluster();
  ClusterSpec straggler = uniform;
  straggler.node_speed = {1.0, 1.0, 1.0, 0.25};

  ParamServerReport ps_uniform, ps_straggler;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         uniform, true, f.evaluator.as_fn(), &ps_uniform);
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         straggler, true, f.evaluator.as_fn(), &ps_straggler);
  const double ps_ratio =
      ps_straggler.simulated_seconds / ps_uniform.simulated_seconds;
  EXPECT_GT(ps_ratio, 2.5);
  EXPECT_LT(ps_ratio, 4.5);

  auto opt = base_options(2);
  opt.batch_size = 4;
  AllreduceReport ar_uniform, ar_straggler;
  (void)run_allreduce_sgd(data::InMemorySource(f.data), f.loss, opt, uniform,
                          false, f.evaluator.as_fn(), &ar_uniform);
  (void)run_allreduce_sgd(data::InMemorySource(f.data), f.loss, opt, straggler,
                          false, f.evaluator.as_fn(), &ar_straggler);
  EXPECT_GT(ar_straggler.simulated_seconds,
            2.0 * ar_uniform.simulated_seconds);
}

TEST(Straggler, StragglerSerialisesTheEpochTail) {
  // Counter-intuitive but correct: the straggler *lowers* mean staleness.
  // Its own updates are staler (many fast updates land during each slow
  // compute), but once the fast nodes exhaust their equal-share quotas the
  // slow node runs the rest of the epoch alone — zero concurrency, zero
  // staleness — and that serialised tail dominates the mean. Asynchrony's
  // parallelism collapses exactly where the wall-clock is lost; both
  // symptoms (lower staleness, longer epoch) share the static-sharding
  // cause.
  Fixture f(1000, 400, 10);
  const ClusterSpec uniform = compute_bound_cluster();
  ClusterSpec straggler = uniform;
  straggler.node_speed = {1.0, 1.0, 1.0, 0.1};
  ParamServerReport uniform_report, straggler_report;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(1),
                         uniform, true, f.evaluator.as_fn(), &uniform_report);
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(1),
                         straggler, true, f.evaluator.as_fn(),
                         &straggler_report);
  EXPECT_LT(straggler_report.mean_staleness_updates,
            uniform_report.mean_staleness_updates);
  EXPECT_GT(straggler_report.simulated_seconds,
            3.0 * uniform_report.simulated_seconds);
}

// ---------- Registry integration: the dist.* solvers ----------

TEST(DistRegistry, TrainerPathReproducesEngineBitForBit) {
  // The acceptance bar for the fold-in: dispatching through TrainerBuilder
  // → SolverRegistry ("dist.ps.is_asgd", cluster spec on the builder) must
  // reproduce the engine-level free function exactly — same final model,
  // same simulated clock, bit for bit.
  Fixture f(500, 150, 8);
  ClusterSpec spec;
  spec.nodes = 4;
  auto opt = base_options(3);
  opt.keep_final_model = true;

  metrics::Evaluator engine_eval(f.data, f.loss,
                                 objectives::Regularization::none(), 1);
  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(f.data)
                                    .objective(f.loss)
                                    .cluster(spec)
                                    .eval_threads(1)
                                    .build();
  const struct {
    const char* registry_name;
    bool use_importance;
  } cases[] = {{"dist.ps.is_asgd", true}, {"dist.ps.asgd", false}};
  for (const auto& c : cases) {
    const solvers::Trace direct =
        run_param_server(data::InMemorySource(f.data), f.loss, opt, spec,
                         c.use_importance, engine_eval.as_fn());
    const solvers::Trace via_registry = trainer.train(c.registry_name, opt);
    EXPECT_TRUE(via_registry.simulated_time);
    EXPECT_EQ(via_registry.algorithm, direct.algorithm) << c.registry_name;
    ASSERT_EQ(via_registry.final_model.size(), direct.final_model.size());
    for (std::size_t j = 0; j < direct.final_model.size(); ++j) {
      ASSERT_EQ(via_registry.final_model[j], direct.final_model[j])
          << c.registry_name << " coordinate " << j;
    }
    ASSERT_EQ(via_registry.points.size(), direct.points.size());
    for (std::size_t e = 0; e < direct.points.size(); ++e) {
      ASSERT_EQ(via_registry.points[e].seconds, direct.points[e].seconds)
          << c.registry_name << " epoch " << e;
      ASSERT_EQ(via_registry.points[e].objective, direct.points[e].objective)
          << c.registry_name << " epoch " << e;
    }
  }
  // Same contract for the synchronous baseline.
  auto ar_opt = opt;
  ar_opt.batch_size = 2;
  const solvers::Trace direct = run_allreduce_sgd(data::InMemorySource(f.data),
                                                  f.loss, ar_opt, spec, false,
                                                  engine_eval.as_fn());
  const solvers::Trace via_registry =
      trainer.train("dist.allreduce.sgd", ar_opt);
  ASSERT_EQ(via_registry.final_model.size(), direct.final_model.size());
  for (std::size_t j = 0; j < direct.final_model.size(); ++j) {
    ASSERT_EQ(via_registry.final_model[j], direct.final_model[j]);
  }
  ASSERT_EQ(via_registry.train_seconds, direct.train_seconds);
}

TEST(DistRegistry, ObserverReceivesParamServerReportAndCanStopEarly) {
  Fixture f(400, 120, 8);
  ClusterSpec spec;
  spec.nodes = 3;
  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(f.data)
                                    .objective(f.loss)
                                    .cluster(spec)
                                    .eval_threads(1)
                                    .build();
  struct Capture : solvers::TrainingObserver {
    ParamServerReport report;
    bool have_report = false;
    std::size_t epochs_seen = 0;
    void on_diagnostics(const std::any& d) override {
      if (const auto* r = std::any_cast<ParamServerReport>(&d)) {
        report = *r;
        have_report = true;
      }
    }
    bool on_epoch(const solvers::TracePoint& p) override {
      ++epochs_seen;
      return p.epoch < 2;  // stop after epoch 2's fence
    }
  } capture;
  const auto trace = trainer.train("dist.ps.is_asgd", base_options(6), &capture);
  EXPECT_TRUE(capture.have_report);
  EXPECT_GT(capture.report.messages, 0u);
  EXPECT_GT(capture.report.simulated_seconds, 0.0);
  // Early stop honoured at the epoch fence: epochs 0 (initial), 1, 2.
  EXPECT_EQ(trace.points.size(), 3u);
}

TEST(DistRegistry, ContextClusterIsSharedFallbackAndBuilderOverridesIt) {
  // ExecutionContext::set_cluster prices every Trainer sharing the context
  // (the sweep pattern); TrainerBuilder::cluster stays private to its own
  // Trainer and wins over the context — building one Trainer never changes
  // what a sibling prices against.
  Fixture f(400, 120, 8);
  auto context = std::make_shared<core::ExecutionContext>(1);
  ClusterSpec shared;
  shared.nodes = 2;
  context->set_cluster(shared);

  const core::Trainer from_context = core::TrainerBuilder()
                                         .data(f.data)
                                         .objective(f.loss)
                                         .execution(context)
                                         .build();
  ClusterSpec own = shared;
  own.nodes = 5;
  const core::Trainer overriding = core::TrainerBuilder()
                                       .data(f.data)
                                       .objective(f.loss)
                                       .execution(context)
                                       .cluster(own)
                                       .build();
  // Trace::threads records the node count the run actually priced against.
  EXPECT_EQ(from_context.train("dist.ps.asgd", base_options(1)).threads, 2u);
  EXPECT_EQ(overriding.train("dist.ps.asgd", base_options(1)).threads, 5u);
  // The override never leaked into the shared context or its sibling.
  ASSERT_NE(context->cluster(), nullptr);
  EXPECT_EQ(context->cluster()->nodes, 2u);
  EXPECT_EQ(from_context.train("dist.ps.asgd", base_options(1)).threads, 2u);
  // set_cluster validates like the builder does, naming the field.
  ClusterSpec bad;
  bad.latency_seconds = -1;
  try {
    context->set_cluster(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("latency_seconds"),
              std::string::npos);
  }
}

TEST(DistRegistry, DefaultClusterSpecAppliesWhenNoneConfigured) {
  // Without TrainerBuilder::cluster the dist.* solvers run under the
  // documented default (4-node 10 GbE) instead of failing.
  Fixture f(300, 80, 6);
  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(f.data)
                                    .objective(f.loss)
                                    .eval_threads(1)
                                    .build();
  const auto trace = trainer.train("dist.ps.asgd", base_options(2));
  EXPECT_EQ(trace.points.size(), 3u);
  EXPECT_EQ(trace.threads, ClusterSpec{}.nodes);
  EXPECT_LT(trace.points.back().rmse, trace.points.front().rmse);
}

// ---------- Shard-major path: DataSource partitions as node shards ----------

TEST(ParamServerSharded, ChunkedSourceConvergesAndRerunsBitPure) {
  Fixture f(900, 300, 10);
  const data::InMemorySource chunked(f.data, /*shard_rows=*/128);  // 8 shards
  ASSERT_GT(chunked.shard_count(), 1u);
  ClusterSpec spec;
  spec.nodes = 3;
  auto opt = base_options(6);
  opt.keep_final_model = true;
  const core::Trainer trainer = core::TrainerBuilder()
                                    .source(chunked)
                                    .objective(f.loss)
                                    .cluster(spec)
                                    .eval_threads(1)
                                    .build();
  const auto first = trainer.train("dist.ps.is_asgd", opt);
  EXPECT_LT(first.points.back().rmse, 0.7 * first.points.front().rmse);
  EXPECT_EQ(first.threads, 3u);
  const auto second = trainer.train("dist.ps.is_asgd", opt);
  ASSERT_EQ(first.final_model.size(), second.final_model.size());
  for (std::size_t j = 0; j < first.final_model.size(); ++j) {
    ASSERT_EQ(first.final_model[j], second.final_model[j]);
  }
  ASSERT_EQ(first.train_seconds, second.train_seconds);
}

TEST(ParamServerSharded, StreamingSourceMatchesChunkedBitForBit) {
  // The tentpole claim end-to-end: an out-of-core StreamingSource (budget
  // far below the dataset, so shards really are evicted and re-read) feeds
  // the simulated cluster shard-by-shard and reproduces the chunked
  // in-memory reference with the same shard geometry bit for bit — the
  // sampling schedule and arithmetic are pure functions of the seed and
  // geometry, never of what the cache did.
  Fixture f(640, 200, 8);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("isasgd_dist_stream_" + std::to_string(::getpid()) + ".bin"))
          .string();
  io::write_dataset_binary_file(path, f.data);

  constexpr std::size_t kShardRows = 80;  // 8 shards
  data::StreamingOptions sopt;
  sopt.shard_rows = kShardRows;
  // ~2 shards of budget: far below the dataset plus the per-node pinned
  // shards, so eviction pressure is real.
  sopt.memory_budget_bytes =
      2 * kShardRows * 8 * (sizeof(sparse::index_t) + sizeof(double));
  const data::StreamingSource streaming(path, sopt);
  const data::InMemorySource chunked(f.data, kShardRows);
  ASSERT_EQ(streaming.shard_count(), chunked.shard_count());

  ClusterSpec cluster;
  cluster.nodes = 3;
  auto opt = base_options(4);
  opt.keep_final_model = true;
  auto train = [&](const data::DataSource& source) {
    const core::Trainer trainer = core::TrainerBuilder()
                                      .source(source)
                                      .objective(f.loss)
                                      .cluster(cluster)
                                      .eval_threads(1)
                                      .build();
    return trainer.train("dist.ps.is_asgd", opt);
  };
  const auto from_stream = train(streaming);
  const auto from_chunked = train(chunked);

  ASSERT_EQ(from_stream.final_model.size(), from_chunked.final_model.size());
  for (std::size_t j = 0; j < from_stream.final_model.size(); ++j) {
    ASSERT_EQ(from_stream.final_model[j], from_chunked.final_model[j])
        << "coordinate " << j;
  }
  ASSERT_EQ(from_stream.points.size(), from_chunked.points.size());
  for (std::size_t e = 0; e < from_stream.points.size(); ++e) {
    ASSERT_EQ(from_stream.points[e].seconds, from_chunked.points[e].seconds);
    ASSERT_EQ(from_stream.points[e].objective,
              from_chunked.points[e].objective);
  }
  EXPECT_LT(from_stream.points.back().rmse, from_stream.points.front().rmse);
  std::remove(path.c_str());
}

TEST(ParamServerSharded, ShardBalancingTightensNodePhiSpread) {
  // The Algorithm-4 story at shard granularity: dealing shards to nodes by
  // importance totals (greedy LPT over shard Φ) must beat an arbitrary
  // shard order on skewed data.
  data::SyntheticSpec spec;
  spec.rows = 1024;
  spec.dim = 400;
  spec.mean_row_nnz = 8;
  spec.target_psi = 0.6;  // wide Lipschitz spread
  const auto data = data::generate(spec);
  objectives::LogisticLoss loss;
  const data::InMemorySource chunked(data, /*shard_rows=*/64);  // 16 shards
  metrics::Evaluator ev(chunked, loss, objectives::Regularization::none(), 1);
  ClusterSpec cluster;
  cluster.nodes = 4;

  auto run_with = [&](partition::Strategy strategy) {
    auto opt = base_options(1);
    opt.partition.strategy = strategy;
    ParamServerReport report;
    (void)run_param_server(chunked, loss, opt, cluster, true, ev.as_fn(),
                           &report);
    return report;
  };
  const ParamServerReport balanced = run_with(partition::Strategy::kGreedyLpt);
  const ParamServerReport raw = run_with(partition::Strategy::kNone);
  EXPECT_EQ(balanced.applied_strategy, partition::Strategy::kGreedyLpt);
  EXPECT_LE(balanced.phi_imbalance, raw.phi_imbalance);
  EXPECT_LT(balanced.phi_imbalance, 0.1);
}

TEST(Allreduce, AsyncSparsePushBeatsDenseAllreduceOnSparseHighDim) {
  // The headline distributed claim: same data, same epochs, simulated
  // seconds — the sparse async server finishes far sooner when d ≫ nnz.
  Fixture f(800, 20000, 8);
  ClusterSpec spec;
  spec.nodes = 4;
  ParamServerReport ps;
  AllreduceReport ar;
  (void)run_param_server(data::InMemorySource(f.data), f.loss, base_options(2),
                         spec, true, f.evaluator.as_fn(), &ps);
  (void)run_allreduce_sgd(data::InMemorySource(f.data), f.loss, base_options(2),
                          spec, false, f.evaluator.as_fn(), &ar);
  EXPECT_LT(ps.simulated_seconds * 5, ar.simulated_seconds);
}

// ---------- Pinned event-clock runs ----------
//
// Each row fixes one engine configuration's exact output (trace_pin.hpp).
// The simulated clock is host-independent, so these strings hold on every
// machine; an intentional change to the engines' arithmetic must re-record
// the affected rows and say which.

TEST(EventClockPins, EveryEngineShapeReproducesItsPinnedBits) {
  const Fixture f(600, 200, 8);
  const data::InMemorySource whole(f.data);
  const data::InMemorySource chunked(f.data, /*shard_rows=*/75);  // 8 shards
  ASSERT_EQ(chunked.shard_count(), 8u);
  ClusterSpec spec;
  spec.nodes = 3;
  ClusterSpec crash = spec;
  crash.fault.crash_node = 2;
  crash.fault.crash_epoch = 2;
  crash.fault.crash_fraction = 0.5;
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
  auto opt = base_options(3);
  opt.keep_final_model = true;
  auto crash_opt = opt;
  crash_opt.epochs = 4;
  auto ar_opt = opt;
  ar_opt.batch_size = 4;

  struct Row {
    const char* name;
    std::function<std::string()> run;
    const char* pin;
  };
  const Row rows[] = {
      {"ps.is in-memory",
       [&] { return pin::registry_run(whole, f.loss, "dist.ps.is_asgd", spec,
                                      opt); },
       "model=8d91535545a0a8de 0x0p+0/0x1.62e42fefa39fdp-1 "
       "0x1.44b56182433fp-8/0x1.f229876bfcb0cp-2 "
       "0x1.44b3d816ff608p-7/0x1.8c92032520ca4p-2 "
       "0x1.e70f478a71f73p-7/0x1.53e0d405521cap-2 | messages=1800 "
       "bytes=171708 staleness=0x1.d70a3d70a3d71p+2 sim=0x1.e70f478a71f73p-7 "
       "phi=0x1.1b7df45d90bap-3 strategy=2 crashes=0 rejoins=0"},
      {"ps.uniform in-memory",
       [&] { return pin::registry_run(whole, f.loss, "dist.ps.asgd", spec,
                                      opt); },
       "model=5c37e507b40a5fae 0x0p+0/0x1.62e42fefa39fdp-1 "
       "0x1.44b3ef485c40fp-8/0x1.f85b5e854606cp-2 "
       "0x1.44b52718e78fap-7/0x1.8dca076fd6f2dp-2 "
       "0x1.e70d434925c34p-7/0x1.522509ca8a3c5p-2 | messages=1800 "
       "bytes=172380 staleness=0x1.d6af37c048d16p+2 sim=0x1.e70d434925c34p-7 "
       "phi=0x1.d3a2aedae3db3p-5 strategy=1 crashes=0 rejoins=0"},
      {"ps.is 8-shard",
       [&] { return pin::registry_run(chunked, f.loss, "dist.ps.is_asgd", spec,
                                      opt); },
       "model=05475ae136e0d9df 0x0p+0/0x1.62e42fefa39f1p-1 "
       "0x1.729a8c94c09ap-8/0x1.f1a818228d772p-2 "
       "0x1.729f52edc2f88p-7/0x1.91cfaa42527acp-2 "
       "0x1.15f6ddc78fd99p-6/0x1.55b08e6da3d43p-2 | messages=1800 "
       "bytes=174408 staleness=0x1.b34e81b4e81b5p+2 sim=0x1.15f6ddc78fd99p-6 "
       "phi=0x1.833c60245bcd6p-2 strategy=2 crashes=0 rejoins=0"},
      {"ps.uniform 8-shard",
       [&] { return pin::registry_run(chunked, f.loss, "dist.ps.asgd", spec,
                                      opt); },
       "model=0aee5cf4cd2b6b3d 0x0p+0/0x1.62e42fefa39f1p-1 "
       "0x1.729aa8ed87729p-8/0x1.eed706f14bf6ap-2 "
       "0x1.729bebe8cdb1fp-7/0x1.8db24ef5ad62cp-2 "
       "0x1.15f3b72f47398p-6/0x1.5546aadf75238p-2 | messages=1800 "
       "bytes=174492 staleness=0x1.b4a8641fdb975p+2 sim=0x1.15f3b72f47398p-6 "
       "phi=0x1.bd47cc9af4b6dp-2 strategy=1 crashes=0 rejoins=0"},
      {"ps.is crash+rejoin reshard",
       [&] { return pin::registry_run(whole, f.loss, "dist.ps.is_asgd", crash,
                                      crash_opt); },
       "model=2dc175937397a91a 0x0p+0/0x1.62e42fefa39fdp-1 "
       "0x1.44b56182433fp-8/0x1.f229876bfcb0cp-2 "
       "0x1.44b3d816ff608p-7/0x1.9790008dfcf2p-2 "
       "0x1.458251d2a642ep-6/0x1.5bca0bc0b5e8cp-2 "
       "0x1.96aea46bfb3f4p-6/0x1.3324b49d86c1ap-2 | messages=2300 "
       "bytes=219576 staleness=0x1.90071f9c45743p+2 sim=0x1.96aea46bfb3f4p-6 "
       "phi=0x1.1b7df45d90bap-3 strategy=2 crashes=1 rejoins=1"},
      {"ps.is straggler crash reshard",
       [&] { return pin::registry_run(whole, f.loss, "dist.ps.is_asgd",
                                      straggler, crash_opt); },
       "model=5ec95f3f7e040eae 0x0p+0/0x1.62e42fefa39fdp-1 "
       "0x1.44c437fa58a63p-8/0x1.f23245fd10c27p-2 "
       "0x1.44bb43530a141p-7/0x1.a3f41260992cbp-2 "
       "0x1.458842e2b1446p-6/0x1.605a625975e17p-2 "
       "0x1.e8b1a8a4bc766p-6/0x1.36426aef9a097p-2 | messages=2250 "
       "bytes=214584 staleness=0x1.4ac7cb35053bep+2 sim=0x1.e8b1a8a4bc766p-6 "
       "phi=0x1.1b7df45d90bap-3 strategy=2 crashes=1 rejoins=0"},
      {"allreduce.uniform",
       [&] { return pin::registry_run(whole, f.loss, "dist.allreduce.sgd",
                                      spec, ar_opt); },
       "model=fe3ecd85bf957ca4 0x0p+0/0x1.62e42fefa39fdp-1 "
       "0x1.4a98b1aed5dd9p-7/0x1.5483454f5dfd3p-1 "
       "0x1.4a988d2cfc904p-6/0x1.47e52d4483c8fp-1 "
       "0x1.efe4d6fc1d13ep-6/0x1.3cb7c049f55ep-1 | rounds=150 "
       "bytes=0x1.0aaaaaaaaaaaap+11 sim=0x1.efe4d6fc1d13ep-6 "
       "comm=0x1.ffd0875a8c76fp-1"},
      {"allreduce.is",
       [&] {
         metrics::Evaluator ev(f.data, f.loss,
                               objectives::Regularization::none(), 1);
         AllreduceReport report;
         const solvers::Trace t = run_allreduce_sgd(
             data::InMemorySource(f.data), f.loss, ar_opt, spec,
             /*use_importance=*/true, ev.as_fn(), &report);
         return pin::of(t, report);
       },
       "model=200246cdccb3f5d4 0x0p+0/0x1.62e42fefa39fdp-1 "
       "0x1.4a98939e41073p-7/0x1.54d0d20e40dbfp-1 "
       "0x1.4a98edcfff8a1p-6/0x1.4782bad20b682p-1 "
       "0x1.efe5a2feea78dp-6/0x1.3bcd09f390c6ap-1 | rounds=150 "
       "bytes=0x1.0aaaaaaaaaaaap+11 sim=0x1.efe5a2feea78dp-6 "
       "comm=0x1.ffcfb4cb583fap-1"},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.run(), row.pin) << row.name;
  }
}

}  // namespace
}  // namespace isasgd::distributed
