// wild_view() contract: the raw-view fast lane the async solvers take under
// UpdatePolicy::kWild must be arithmetically indistinguishable from the
// per-element atomic path it replaced.
//
// Three layers of evidence:
//   1. Storage coherence — writes through add()/store() are visible through
//      the raw view and vice versa (plain storage + atomic_ref window).
//   2. Kernel parity — a frozen copy of the pre-wild-view per-element
//      atomic inner loop (margin via model.load, update via model.add)
//      replayed against the fused-kernel wild path gives bit-identical
//      models for every regularizer kind.
//   3. Solver parity — serial (threads = 1) registry runs under kWild (the
//      fast lane) and kAtomic (per-element fetch_add) are bit-identical:
//      with one worker both disciplines perform the same real-number
//      updates, so any divergence is a fast-lane arithmetic change.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/logistic.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {
namespace {

TEST(WildView, RawAndAtomicAccessSeeTheSameStorage) {
  SharedModel model(8);
  model.add(3, 1.5, UpdatePolicy::kAtomic);
  model.store(5, -2.0);
  const std::span<const double> view =
      static_cast<const SharedModel&>(model).wild_view();
  EXPECT_EQ(view.size(), 8u);
  EXPECT_EQ(view[3], 1.5);
  EXPECT_EQ(view[5], -2.0);
  model.wild_view()[3] = 4.25;
  EXPECT_EQ(model.load(3), 4.25);
  std::vector<double> scratch;
  model.snapshot_into(scratch);
  EXPECT_EQ(scratch, model.snapshot());
  EXPECT_EQ(scratch[3], 4.25);
}

/// Frozen pre-wild-view inner loop: margin through relaxed atomic loads,
/// update through per-element add() with the out-of-line subgradient — the
/// exact code the solvers ran before the fast lane existed.
void frozen_atomic_step(SharedModel& model, sparse::SparseVectorView x,
                        double label, const objectives::Objective& objective,
                        double step, const objectives::Regularization& reg,
                        UpdatePolicy policy) {
  const double margin = model.sparse_dot(x);
  const double g = objective.gradient_scale(margin, label);
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const std::size_t c = idx[j];
    const double wc = model.load(c);
    model.add(c, -step * (g * val[j] + reg.subgradient(wc)), policy);
  }
}

TEST(WildView, FusedKernelPathMatchesFrozenAtomicLoopBitForBit) {
  const objectives::LogisticLoss loss;
  data::SyntheticSpec spec;
  spec.rows = 300;
  spec.dim = 120;
  spec.mean_row_nnz = 8;
  const auto data = data::generate(spec);

  for (const auto& reg :
       {objectives::Regularization::none(), objectives::Regularization::l1(1e-3),
        objectives::Regularization::l2(1e-3)}) {
    SharedModel atomic_model(data.dim());
    SharedModel wild_model(data.dim());
    const std::span<double> wv = wild_model.wild_view();
    const double eta_l1 = reg.eta_l1();
    const double eta_l2 = reg.eta_l2();
    util::Rng rng(99);
    for (std::size_t t = 0; t < 2000; ++t) {
      const std::size_t i = util::uniform_index(rng, data.rows());
      const auto x = data.row(i);
      const double step = 0.5 / (1.0 + static_cast<double>(t) / 500.0);
      frozen_atomic_step(atomic_model, x, data.label(i), loss, step, reg,
                         UpdatePolicy::kWild);
      const double margin = sparse::sparse_dot(wv, x);
      const double g = loss.gradient_scale(margin, data.label(i));
      sparse::sparse_dot_residual_axpy(wv, x, step, g, eta_l1, eta_l2);
    }
    const auto a = atomic_model.snapshot();
    const auto b = wild_model.snapshot();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "reg=" << reg.name() << " j=" << j;
    }
  }
}

class WildViewSolverParity : public ::testing::Test {
 protected:
  WildViewSolverParity()
      : data_([] {
          data::SyntheticSpec spec;
          spec.rows = 600;
          spec.dim = 200;
          spec.mean_row_nnz = 9;
          spec.target_psi = 0.8;
          return data::generate(spec);
        }()),
        trainer_(core::TrainerBuilder()
                     .data(data_)
                     .objective(loss_)
                     .l2(1e-4)
                     .eval_threads(1)
                     .build()) {}

  /// Serial run of `solver` under `policy`; returns the final model.
  std::vector<double> run(const std::string& solver, UpdatePolicy policy,
                          std::size_t batch_size = 1,
                          bool adaptive = false) const {
    SolverOptions opt;
    opt.threads = 1;
    opt.epochs = 4;
    opt.seed = 17;
    opt.step_size = 0.3;
    opt.batch_size = batch_size;
    opt.update_policy = policy;
    opt.adaptive_importance = adaptive;
    opt.keep_final_model = true;
    const Trace t = trainer_.train(solver, opt);
    EXPECT_FALSE(t.final_model.empty()) << solver;
    return t.final_model;
  }

  void expect_parity(const std::string& solver, std::size_t batch_size = 1,
                     bool adaptive = false) const {
    const auto wild = run(solver, UpdatePolicy::kWild, batch_size, adaptive);
    const auto atomic =
        run(solver, UpdatePolicy::kAtomic, batch_size, adaptive);
    ASSERT_EQ(wild.size(), atomic.size()) << solver;
    for (std::size_t j = 0; j < wild.size(); ++j) {
      ASSERT_EQ(wild[j], atomic[j]) << solver << " j=" << j;
    }
  }

  objectives::LogisticLoss loss_;
  sparse::CsrMatrix data_;
  core::Trainer trainer_;
};

TEST_F(WildViewSolverParity, IsAsgdSerialWildEqualsAtomic) {
  expect_parity("is_asgd");
}

TEST_F(WildViewSolverParity, IsAsgdMiniBatchSerialWildEqualsAtomic) {
  expect_parity("is_asgd", /*batch_size=*/3);
}

TEST_F(WildViewSolverParity, IsAsgdAdaptiveSerialWildEqualsAtomic) {
  expect_parity("is_asgd", /*batch_size=*/1, /*adaptive=*/true);
}

TEST_F(WildViewSolverParity, AsgdSerialWildEqualsAtomic) {
  expect_parity("asgd");
}

TEST_F(WildViewSolverParity, AsgdMiniBatchSerialWildEqualsAtomic) {
  expect_parity("asgd", /*batch_size=*/3);
}

TEST_F(WildViewSolverParity, SvrgAsgdSerialWildEqualsAtomic) {
  expect_parity("svrg_asgd");
}

TEST_F(WildViewSolverParity, IsProxAsgdSerialWildEqualsAtomic) {
  // The prox map is non-additive, so kAtomic degrades to the racy
  // load→prox→store (see SharedModel::update) — serially identical real
  // arithmetic to the raw wild lane.
  expect_parity("is_prox_asgd");
}

}  // namespace
}  // namespace isasgd::solvers
