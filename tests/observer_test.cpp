// TrainingObserver pipeline: per-epoch callbacks, early stopping that
// terminates serial and async runs mid-sweep, typed diagnostics, and the
// begin/end bracketing every registry-dispatched run receives.
#include <gtest/gtest.h>

#include <any>
#include <limits>
#include <string>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "objectives/logistic.hpp"
#include "solvers/is_asgd.hpp"

namespace isasgd::core {
namespace {

struct Fixture {
  sparse::CsrMatrix data;
  objectives::LogisticLoss loss;
  Trainer trainer;

  Fixture()
      : data([] {
          data::SyntheticSpec spec;
          spec.rows = 500;
          spec.dim = 100;
          spec.mean_row_nnz = 8;
          return data::generate(spec);
        }()),
        trainer(data, loss, objectives::Regularization::l2(1e-5), 2) {}
};

/// Counts callbacks and requests a stop after `stop_after` epochs (0-based
/// initial point excluded from the stop budget).
class CountingObserver : public solvers::TrainingObserver {
 public:
  explicit CountingObserver(std::size_t stop_after = SIZE_MAX)
      : stop_after_(stop_after) {}

  void on_train_begin(const std::string& solver_name,
                      const solvers::SolverOptions&) override {
    ++begins;
    solver = solver_name;
  }

  bool on_epoch(const solvers::TracePoint& p) override {
    ++epochs_seen;
    last_epoch = p.epoch;
    return p.epoch < stop_after_;
  }

  void on_diagnostics(const std::any& d) override {
    if (std::any_cast<solvers::IsAsgdReport>(&d)) ++reports;
  }

  void on_train_end(const solvers::Trace& t) override {
    ++ends;
    final_points = t.points.size();
  }

  std::string solver;
  std::size_t begins = 0, ends = 0, epochs_seen = 0, reports = 0;
  std::size_t last_epoch = 0, final_points = 0;

 private:
  std::size_t stop_after_;
};

TEST(Observer, SeesEveryEpochAndBeginEndBracketing) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.epochs = 4;
  opt.step_size = 0.2;
  CountingObserver obs;
  const auto trace = f.trainer.train("SGD", opt, &obs);
  EXPECT_EQ(obs.begins, 1u);
  EXPECT_EQ(obs.ends, 1u);
  EXPECT_EQ(obs.solver, "SGD");
  EXPECT_EQ(obs.epochs_seen, 5u);  // initial point + 4 epochs
  EXPECT_EQ(obs.final_points, trace.points.size());
}

TEST(Observer, EarlyStopTerminatesSerialSolverMidSweep) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.epochs = 20;
  opt.step_size = 0.2;
  CountingObserver obs(/*stop_after=*/2);
  const auto trace = f.trainer.train("SGD", opt, &obs);
  // Points: epoch 0, 1, 2 — then the stop request lands.
  EXPECT_EQ(trace.points.size(), 3u);
  EXPECT_EQ(trace.points.back().epoch, 2u);
}

TEST(Observer, EarlyStopTerminatesAsyncSolverMidSweep) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.epochs = 20;
  opt.threads = 4;
  opt.step_size = 0.2;
  for (const char* solver : {"ASGD", "IS-ASGD", "SVRG-ASGD"}) {
    CountingObserver obs(/*stop_after=*/2);
    const auto trace = f.trainer.train(solver, opt, &obs);
    EXPECT_EQ(trace.points.size(), 3u) << solver;
    EXPECT_EQ(trace.points.back().epoch, 2u) << solver;
  }
}

TEST(Observer, StopAtInitialPointRunsZeroEpochs) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.epochs = 20;
  opt.threads = 2;
  opt.step_size = 0.2;
  for (const char* solver : {"SGD", "ASGD"}) {
    CountingObserver obs(/*stop_after=*/0);
    const auto trace = f.trainer.train(solver, opt, &obs);
    EXPECT_EQ(trace.points.size(), 1u) << solver;
    EXPECT_EQ(trace.points.back().epoch, 0u) << solver;
  }
}

TEST(Observer, IsAsgdPublishesTypedDiagnostics) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.epochs = 1;
  opt.threads = 2;
  CountingObserver obs;
  (void)f.trainer.train("IS-ASGD", opt, &obs);
  EXPECT_EQ(obs.reports, 1u);
}

TEST(Observer, ChainFansOutAndCombinesStopRequests) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.epochs = 10;
  opt.step_size = 0.2;
  CountingObserver watcher;             // never stops
  CountingObserver stopper(/*stop_after=*/1);  // stops after epoch 1
  solvers::ObserverChain chain;
  chain.add(watcher).add(stopper);
  const auto trace = f.trainer.train("SGD", opt, &chain);
  EXPECT_EQ(trace.points.size(), 2u);
  // Both observers saw every recorded point.
  EXPECT_EQ(watcher.epochs_seen, 2u);
  EXPECT_EQ(stopper.epochs_seen, 2u);
}

TEST(Observer, ValidationFailureFiresNoCallbacks) {
  Fixture f;
  solvers::SolverOptions opt;
  opt.step_size = -1.0;  // rejected by Solver::validate
  CountingObserver obs;
  EXPECT_THROW((void)f.trainer.train("SGD", opt, &obs),
               std::invalid_argument);
  EXPECT_EQ(obs.begins, 0u);
  EXPECT_EQ(obs.ends, 0u);
}

TEST(Observer, NonFiniteStepOrBadStrengthFiresNoCallbacks) {
  // Every case trained to completion (or, for l2(inf), failed by accident
  // inside the alias build) before Solver::validate checked it; a batch one
  // row larger than the data sized each worker's scratch by it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  using objectives::Regularization;
  struct Case {
    double step;
    Regularization reg;
    std::size_t batch;
    const char* field;
  };
  const Fixture f;
  const std::size_t too_big = f.data.rows() + 1;
  for (const Case& c :
       {Case{kNaN, Regularization::l2(1e-5), 1, "step_size"},
        Case{kInf, Regularization::l2(1e-5), 1, "step_size"},
        Case{0.2, Regularization::l1(-1.0), 1, "reg.eta"},
        Case{0.2, Regularization::l1(kNaN), 1, "reg.eta"},
        Case{0.2, Regularization::l2(kInf), 1, "reg.eta"},
        Case{0.2, Regularization::l2(-1e-3), 1, "reg.eta"},
        Case{0.2, Regularization::l2(1e-5), too_big, "batch_size"}}) {
    SCOPED_TRACE(std::string(c.field) + " step=" + std::to_string(c.step) +
                 " " + c.reg.name() + "(" + std::to_string(c.reg.eta) +
                 ") batch=" + std::to_string(c.batch));
    const Trainer trainer(f.data, f.loss, c.reg, 2);
    solvers::SolverOptions opt;
    opt.step_size = c.step;
    opt.batch_size = c.batch;
    CountingObserver obs;
    try {
      (void)trainer.train("is_asgd", opt, &obs);
      ADD_FAILURE() << "validation accepted the options";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(obs.begins, 0u);
    EXPECT_EQ(obs.ends, 0u);
  }
}

}  // namespace
}  // namespace isasgd::core
