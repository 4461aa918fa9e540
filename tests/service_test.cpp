// TrainingService: multi-tenant scheduling, admission control, lifecycle
// verbs, and the line protocol.
//
// The acceptance bar (ISSUE 6): several concurrent jobs sharing one
// 2-worker pool all reach the conformance closed-form optimum; an
// over-budget job is refused with a *typed* AdmissionError; cancel leaves
// the pool reusable for the next job.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "io/libsvm.hpp"
#include "objectives/least_squares.hpp"
#include "service/protocol.hpp"
#include "service/training_service.hpp"
#include "sparse/csr_builder.hpp"
#include "util/rng.hpp"

namespace isasgd {
namespace {

constexpr std::size_t kRows = 96;
constexpr std::size_t kDim = 8;
constexpr double kEta = 0.1;

/// The conformance problem (tests/conformance_test.cpp): dense rows with
/// ‖x‖² ≈ 1 and a strongly convex least-squares objective, so F has the
/// unique closed-form optimum w* = (XᵀX/n + ηI)⁻¹ Xᵀy/n.
sparse::CsrMatrix make_problem() {
  util::Rng rng(20260807);
  sparse::CsrBuilder builder(kDim);
  std::vector<double> teacher(kDim);
  for (auto& t : teacher) t = 2.0 * util::uniform_double(rng) - 1.0;
  std::vector<sparse::index_t> idx(kDim);
  std::vector<sparse::value_t> val(kDim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(kDim));
  for (std::size_t i = 0; i < kRows; ++i) {
    double margin = 0;
    for (std::size_t j = 0; j < kDim; ++j) {
      idx[j] = static_cast<sparse::index_t>(j);
      val[j] = scale * (2.0 * util::uniform_double(rng) - 1.0) * 1.7;
      margin += val[j] * teacher[j];
    }
    const double y = margin + 0.01 * (2.0 * util::uniform_double(rng) - 1.0);
    builder.add_row({idx.data(), idx.size()}, {val.data(), val.size()}, y);
  }
  return builder.build();
}

std::vector<double> closed_form_optimum(const sparse::CsrMatrix& data) {
  const std::size_t d = data.dim();
  const double n = static_cast<double>(data.rows());
  std::vector<std::vector<double>> a(d, std::vector<double>(d + 1, 0.0));
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto x = data.row(i);
    for (std::size_t p = 0; p < x.nnz(); ++p) {
      for (std::size_t q = 0; q < x.nnz(); ++q) {
        a[x.index(p)][x.index(q)] += x.value(p) * x.value(q) / n;
      }
      a[x.index(p)][d] += x.value(p) * data.label(i) / n;
    }
  }
  for (std::size_t j = 0; j < d; ++j) a[j][j] += kEta;
  for (std::size_t col = 0; col < d; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < d; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    for (std::size_t r = 0; r < d; ++r) {
      if (r == col || a[r][col] == 0.0) continue;
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c <= d; ++c) a[r][c] -= f * a[col][c];
    }
  }
  std::vector<double> w(d);
  for (std::size_t j = 0; j < d; ++j) w[j] = a[j][d] / a[j][j];
  return w;
}

struct Fixture {
  std::shared_ptr<const sparse::CsrMatrix> matrix =
      std::make_shared<const sparse::CsrMatrix>(make_problem());
  std::vector<double> w_star = closed_form_optimum(*matrix);

  service::TrainingService::Options service_options() const {
    service::TrainingService::Options options;
    options.max_concurrent = 2;
    // A 2-worker shared pool: the jobs' epochs time-slice it.
    options.execution = std::make_shared<core::ExecutionContext>(
        /*eval_threads=*/1, util::ThreadPool::Options{.max_workers = 2});
    options.memory_budget_bytes = std::size_t{8} << 20;
    return options;
  }

  service::JobSpec job(const std::string& solver) const {
    service::JobSpec spec;
    spec.solver = solver;
    spec.matrix = matrix;
    spec.objective = "least_squares";
    spec.options.epochs = 120;
    spec.options.step_size = 0.5;
    spec.options.step_decay = 0.93;
    spec.options.threads = 2;
    spec.options.update_policy = solvers::UpdatePolicy::kAtomic;
    spec.options.reg = objectives::Regularization::l2(kEta);
    spec.options.seed = 4242;
    return spec;
  }

  /// F-gap of the service job's final objective vs the closed form.
  double gap(const service::JobStatus& status) const {
    objectives::LeastSquaresLoss loss;
    const core::Trainer trainer =
        core::TrainerBuilder().data(*matrix).objective(loss).l2(kEta).build();
    return status.objective_value -
           trainer.evaluate(w_star).objective;
  }
};

TEST(TrainingService, ConcurrentJobsAllReachTheClosedFormOptimum) {
  Fixture f;
  service::TrainingService svc(f.service_options());

  // Three jobs on two slice slots: at least one is always waiting its turn,
  // so completion proves the fence-level round-robin makes progress.
  const std::uint64_t a = svc.submit(f.job("sgd"));
  const std::uint64_t b = svc.submit(f.job("is_sgd"));
  const std::uint64_t c = svc.submit(f.job("saga"));
  svc.wait_all();

  for (const std::uint64_t id : {a, b, c}) {
    const service::JobStatus s = svc.status(id);
    EXPECT_EQ(s.state, service::JobState::kCompleted) << s.message;
    EXPECT_EQ(s.epoch, 120u);
    EXPECT_NE(s.model_hash, 0u);
    EXPECT_LT(f.gap(s), 2e-3) << "job " << id << " (" << s.solver << ")";
    EXPECT_GT(f.gap(s), -1e-10);
  }
  EXPECT_EQ(svc.execution().total_jobs(), 3u);
  EXPECT_EQ(svc.execution().active_jobs(), 0u);
  EXPECT_EQ(svc.governor().used(), 0u);
}

TEST(TrainingService, OverBudgetJobIsRefusedWithTypedError) {
  Fixture f;
  auto options = f.service_options();
  options.memory_budget_bytes = 1024;  // nothing real fits
  service::TrainingService svc(options);
  try {
    (void)svc.submit(f.job("sgd"));
    FAIL() << "expected AdmissionError";
  } catch (const service::AdmissionError& e) {
    EXPECT_GT(e.requested_bytes(), e.budget_bytes());
    EXPECT_EQ(e.budget_bytes(), 1024u);
    EXPECT_NE(std::string(e.what()).find("memory budget"), std::string::npos);
  }
  EXPECT_EQ(svc.governor().used(), 0u);
}

TEST(TrainingService, JobsThatFitTheBudgetButNotNowAreQueuedFifo) {
  Fixture f;
  // Probe what one conformance job actually reserves, then size the budget
  // to fit one job but not two — robust to estimator changes.
  std::size_t reserved = 0;
  {
    service::TrainingService probe(f.service_options());
    reserved = probe.status(probe.submit(f.job("sgd"))).reserved_bytes;
    probe.wait_all();
  }
  auto options = f.service_options();
  options.memory_budget_bytes = reserved + reserved / 2;
  service::TrainingService svc(options);

  service::JobSpec hog = f.job("sgd");
  hog.options.epochs = 200000;  // keeps its reservation held until cancel
  const std::uint64_t first = svc.submit(hog);
  const std::uint64_t second = svc.submit(f.job("is_sgd"));
  // The second job must be parked, not rejected and not running.
  EXPECT_EQ(svc.status(second).state, service::JobState::kQueued);

  // Freeing the first reservation must pump the queue.
  ASSERT_TRUE(svc.cancel(first));
  svc.wait_all();
  EXPECT_EQ(svc.status(first).state, service::JobState::kCancelled);
  EXPECT_EQ(svc.status(second).state, service::JobState::kCompleted)
      << svc.status(second).message;
  EXPECT_LT(f.gap(svc.status(second)), 2e-3);
}

TEST(TrainingService, AdmissionCountsEachWorkersStepScratch) {
  // An asgd worker holds min(b, rows) 64-byte batch entries beside its
  // block of draws, so at batch = rows each of the job's two workers holds
  // rows − 1 entries more than at batch = 1.
  Fixture f;
  service::TrainingService svc(f.service_options());
  service::JobSpec single = f.job("asgd");
  single.options.epochs = 1;
  service::JobSpec whole = single;
  whole.options.batch_size = kRows;
  const std::size_t single_bytes =
      svc.status(svc.submit(single)).reserved_bytes;
  const std::size_t whole_bytes = svc.status(svc.submit(whole)).reserved_bytes;
  EXPECT_EQ(whole_bytes - single_bytes, 2 * (kRows - 1) * 64);
  svc.wait_all();
}

TEST(TrainingService, AbsurdThreadCountFailsAdmission) {
  // threads arrives from the wire as any u64: its scratch estimate must
  // saturate, not wrap to a reservation that admits the job.
  Fixture f;
  service::TrainingService svc(f.service_options());
  service::JobSpec spec = f.job("asgd");
  spec.options.threads = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW((void)svc.submit(spec), service::AdmissionError);
  EXPECT_EQ(svc.governor().used(), 0u);
}

TEST(TrainingService, CancelLeavesThePoolReusable) {
  Fixture f;
  service::TrainingService svc(f.service_options());

  service::JobSpec longer = f.job("sgd");
  longer.options.epochs = 100000;  // would run ~forever without the cancel
  const std::uint64_t doomed = svc.submit(longer);
  while (svc.status(doomed).epoch < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(svc.cancel(doomed));
  svc.wait(doomed);
  EXPECT_EQ(svc.status(doomed).state, service::JobState::kCancelled);
  EXPECT_FALSE(svc.cancel(doomed));  // already terminal

  // The shared pool and the freed budget must serve the next job normally.
  const std::uint64_t next = svc.submit(f.job("is_sgd"));
  svc.wait(next);
  EXPECT_EQ(svc.status(next).state, service::JobState::kCompleted);
  EXPECT_LT(f.gap(svc.status(next)), 2e-3);
}

TEST(TrainingService, PauseParksAtAFenceAndResumeContinues) {
  Fixture f;
  service::TrainingService svc(f.service_options());
  service::JobSpec spec = f.job("sgd");
  spec.options.epochs = 200000;  // long enough that the pause always lands
  const std::uint64_t id = svc.submit(spec);
  ASSERT_TRUE(svc.pause(id));
  // The job must reach kPaused (at its next fence) and then hold its epoch.
  while (svc.status(id).state != service::JobState::kPaused) {
    ASSERT_NE(svc.status(id).state, service::JobState::kCompleted)
        << "job finished before the pause took effect";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t paused_at = svc.status(id).epoch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(svc.status(id).epoch, paused_at);

  ASSERT_TRUE(svc.resume(id));
  // Progress must restart; then cancel to wind the long job down.
  while (svc.status(id).epoch <= paused_at &&
         svc.status(id).state != service::JobState::kCompleted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(svc.cancel(id));
  svc.wait(id);
  EXPECT_EQ(svc.status(id).state, service::JobState::kCancelled);
}

TEST(TrainingService, UnknownSolverAndBadSpecFailAtSubmit) {
  Fixture f;
  service::TrainingService svc(f.service_options());
  service::JobSpec spec = f.job("no_such_solver");
  EXPECT_THROW((void)svc.submit(spec), std::invalid_argument);

  spec = f.job("sgd");
  spec.matrix = nullptr;  // neither dataset nor matrix
  EXPECT_THROW((void)svc.submit(spec), std::invalid_argument);

  spec = f.job("asgd");  // not checkpointable
  spec.checkpoint_path = ::testing::TempDir() + "asgd.ckpt";
  EXPECT_THROW((void)svc.submit(spec), std::invalid_argument);
}

TEST(TrainingService, ServiceLevelCheckpointResumeIsBitIdentical) {
  Fixture f;
  const std::string ckpt = ::testing::TempDir() + "service_resume.ckpt";

  // Uninterrupted reference.
  std::uint64_t reference_hash = 0;
  {
    service::TrainingService svc(f.service_options());
    const std::uint64_t id = svc.submit(f.job("is_sgd"));
    svc.wait(id);
    reference_hash = svc.status(id).model_hash;
    ASSERT_NE(reference_hash, 0u);
  }

  // "Crashed" run: checkpoint every 40 fences, cancel mid-flight — the
  // checkpoint file survives the service teardown like a kill would leave
  // it on disk.
  {
    service::TrainingService svc(f.service_options());
    service::JobSpec spec = f.job("is_sgd");
    spec.checkpoint_path = ckpt;
    spec.checkpoint_every = 40;
    const std::uint64_t id = svc.submit(spec);
    while (svc.status(id).epoch < 45 &&
           svc.status(id).state == service::JobState::kRunning) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)svc.cancel(id);
    svc.wait(id);
  }

  // Fresh process stand-in: a brand-new service resumes from the file and
  // must land on the exact model the uninterrupted run produced.
  {
    service::TrainingService svc(f.service_options());
    service::JobSpec spec = f.job("is_sgd");
    spec.checkpoint_path = ckpt;
    spec.resume_from = ckpt;
    const std::uint64_t id = svc.submit(spec);
    svc.wait(id);
    const service::JobStatus s = svc.status(id);
    EXPECT_EQ(s.state, service::JobState::kCompleted) << s.message;
    EXPECT_EQ(s.model_hash, reference_hash)
        << "resumed model diverged from the uninterrupted run";
  }
  std::remove(ckpt.c_str());
}

TEST(Protocol, RoundTripOverInMemoryHandler) {
  Fixture f;
  // The wire submit takes a dataset path: write the problem out as LibSVM.
  const std::string dataset = ::testing::TempDir() + "service_protocol.libsvm";
  io::write_libsvm_file(dataset, *f.matrix);

  service::TrainingService svc(f.service_options());
  service::ProtocolHandler handler(svc);

  EXPECT_EQ(handler.handle_line("ping"), "ok pong");
  EXPECT_EQ(handler.handle_line("list"), "ok jobs=0");

  // cache_mb bounds the streaming reservation so the job fits the
  // fixture's 8 MiB service budget.
  const std::string response = handler.handle_line(
      "submit solver=sgd data=" + dataset +
      " objective=least_squares epochs=10 step=0.3 seed=9 l2=0.1 cache_mb=1");
  ASSERT_EQ(response.rfind("ok id=", 0), 0u) << response;
  const std::string id = response.substr(6);

  EXPECT_EQ(handler.handle_line("wait id=" + id).rfind("ok id=" + id, 0), 0u);
  const std::string status = handler.handle_line("status id=" + id);
  EXPECT_NE(status.find("state=completed"), std::string::npos) << status;
  EXPECT_NE(status.find("epoch=10/10"), std::string::npos) << status;
  EXPECT_EQ(status.find("model=0000000000000000"), std::string::npos)
      << "completed job must report a nonzero model hash: " << status;
  EXPECT_NE(handler.handle_line("list").find(id + ":completed"),
            std::string::npos);

  // Errors come back as single err lines, never as exceptions.
  EXPECT_EQ(handler.handle_line("status id=999"),
            "err unknown job id 999");
  EXPECT_EQ(handler.handle_line("bogus").rfind("err unknown verb", 0), 0u);
  EXPECT_EQ(handler.handle_line("status id=abc").rfind("err bad integer", 0),
            0u);
  EXPECT_EQ(handler.handle_line("submit solver=sgd").rfind("err", 0), 0u);
  EXPECT_EQ(
      handler.handle_line("submit solver=sgd data=/missing/file.libsvm")
          .rfind("err", 0),
      0u);

  EXPECT_FALSE(handler.shutdown_requested());
  EXPECT_EQ(handler.handle_line("shutdown"), "ok bye");
  EXPECT_TRUE(handler.shutdown_requested());
  std::remove(dataset.c_str());
}

TEST(Protocol, PsServeRejectsABadRegularizationStrength) {
  Fixture f;
  service::TrainingService svc(f.service_options());
  service::ProtocolHandler handler(svc);
  for (const char* bad : {"l1=-1", "l1=nan", "l2=inf"}) {
    const std::string response =
        handler.handle_line(std::string("ps_serve dim=4 ") + bad);
    EXPECT_EQ(response.rfind("err PsHost: reg.eta", 0), 0u)
        << bad << ": " << response;
  }
  // No host was left behind, so a valid strength serves.
  const std::string served = handler.handle_line("ps_serve dim=4 l1=0.01");
  EXPECT_EQ(served.rfind("ok addr=", 0), 0u) << served;
  EXPECT_EQ(handler.handle_line("ps_stop"), "ok pushes=0");
}

}  // namespace
}  // namespace isasgd
