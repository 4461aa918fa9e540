// Tests for the locked update disciplines (kStriped / kLocked) and the
// Spinlock primitive they are built on.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "metrics/evaluator.hpp"
#include "objectives/logistic.hpp"
#include "solvers/asgd.hpp"
#include "solvers/model.hpp"
#include "util/spinlock.hpp"

namespace isasgd::solvers {
namespace {

TEST(Spinlock, MutualExclusionUnderContention) {
  util::Spinlock lock;
  long counter = 0;
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard guard(lock);
        ++counter;  // non-atomic: only correct if the lock excludes
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(counter, long(kThreads) * kIters);
}

TEST(Spinlock, TryLockReflectsState) {
  util::Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(UpdatePolicy, NamesRoundTrip) {
  for (UpdatePolicy p : {UpdatePolicy::kWild, UpdatePolicy::kAtomic,
                         UpdatePolicy::kStriped, UpdatePolicy::kLocked}) {
    EXPECT_EQ(update_policy_from_name(update_policy_name(p)), p);
  }
  EXPECT_THROW((void)update_policy_from_name("rcu"), std::invalid_argument);
}

TEST(SharedModel, StripeCountConfigurable) {
  SharedModel a(10);
  EXPECT_EQ(a.lock_stripes(), 1024u);
  SharedModel b(10, 64);
  EXPECT_EQ(b.lock_stripes(), 64u);
  SharedModel c(10, 0);  // degenerate request clamps to one stripe
  EXPECT_EQ(c.lock_stripes(), 1u);
}

/// Hammers one hot coordinate from many threads under `policy`; returns the
/// final value (each of the kThreads·kIters adds is +1).
double hammer(UpdatePolicy policy, std::size_t stripes = 16) {
  SharedModel model(4, stripes);
  constexpr int kThreads = 8, kIters = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) model.add(1, 1.0, policy);
    });
  }
  for (auto& t : pool) t.join();
  return model.load(1);
}

TEST(SharedModel, LockedPoliciesNeverLoseUpdates) {
  constexpr double kExpected = 8.0 * 50000.0;
  EXPECT_DOUBLE_EQ(hammer(UpdatePolicy::kAtomic), kExpected);
  EXPECT_DOUBLE_EQ(hammer(UpdatePolicy::kStriped), kExpected);
  EXPECT_DOUBLE_EQ(hammer(UpdatePolicy::kLocked), kExpected);
  EXPECT_DOUBLE_EQ(hammer(UpdatePolicy::kStriped, 1), kExpected);
}

TEST(SharedModel, WildMayLoseButNeverInvents) {
  // Hogwild semantics: lost updates shrink the count; nothing can grow it.
  const double got = hammer(UpdatePolicy::kWild);
  EXPECT_LE(got, 8.0 * 50000.0);
  EXPECT_GT(got, 0.0);
}

TEST(Asgd, ConvergesUnderEveryPolicy) {
  data::SyntheticSpec spec;
  spec.rows = 1000;
  spec.dim = 200;
  spec.mean_row_nnz = 8;
  spec.label_noise = 0.02;
  const auto data = data::generate(spec);
  objectives::LogisticLoss loss;
  metrics::Evaluator evaluator(data, loss, objectives::Regularization::none(),
                               4);
  for (UpdatePolicy policy : {UpdatePolicy::kWild, UpdatePolicy::kAtomic,
                              UpdatePolicy::kStriped, UpdatePolicy::kLocked}) {
    SolverOptions opt;
    opt.epochs = 6;
    opt.threads = 4;
    opt.seed = 5;
    opt.update_policy = policy;
    const Trace t = run_asgd(data, loss, opt, evaluator.as_fn());
    EXPECT_LT(t.points.back().rmse, 0.7 * t.points.front().rmse)
        << update_policy_name(policy);
  }
}

}  // namespace
}  // namespace isasgd::solvers
