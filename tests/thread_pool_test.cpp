#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "objectives/logistic.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/model.hpp"
#include "solvers/observer.hpp"
#include "solvers/trace.hpp"

namespace isasgd::util {
namespace {

solvers::EvalFn null_eval() {
  return [](std::span<const double>) { return solvers::EvalResult{}; };
}

TEST(ThreadPool, RunsEveryTidExactlyOnce) {
  ThreadPool pool;
  std::vector<std::atomic<int>> hits(13);
  pool.run(13, [&](std::size_t tid) { hits[tid].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, TeamOfOneRunsInlineWithoutSpawning) {
  ThreadPool pool;
  bool ran = false;
  pool.run(1, [&](std::size_t tid) {
    EXPECT_EQ(tid, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.threads_spawned(), 0u);
  EXPECT_EQ(pool.jobs_dispatched(), 1u);
}

TEST(ThreadPool, ReusesWorkersAcrossJobs) {
  ThreadPool pool;
  const std::size_t team = 4;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.run(team, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), static_cast<int>(team));
  }
  // The reuse contract: workers are spawned once, never per job.
  EXPECT_EQ(pool.threads_spawned(), team);
  EXPECT_EQ(pool.capacity(), team);
  EXPECT_EQ(pool.jobs_dispatched(), 20u);
}

TEST(ThreadPool, OversubscriptionClampBoundsOsThreads) {
  ThreadPool pool(0, {.max_workers = 2});
  EXPECT_EQ(pool.max_workers(), 2u);
  std::vector<std::atomic<int>> hits(16);
  std::mutex mu;
  std::set<std::thread::id> os_threads;
  pool.run(16, [&](std::size_t tid) {
    hits[tid].fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu);
    os_threads.insert(std::this_thread::get_id());
  });
  // Every logical tid executed exactly once...
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // ...on a clamped number of OS threads.
  EXPECT_LE(os_threads.size(), 2u);
  EXPECT_LE(pool.threads_spawned(), 2u);
}

TEST(ThreadPool, GrowsOnDemandUpToLargerTeams) {
  ThreadPool pool;
  pool.run(2, [](std::size_t) {});
  EXPECT_EQ(pool.threads_spawned(), 2u);
  pool.run(5, [](std::size_t) {});
  EXPECT_EQ(pool.threads_spawned(), 5u);
  // Shrinking the team spawns nothing new.
  pool.run(3, [](std::size_t) {});
  EXPECT_EQ(pool.threads_spawned(), 5u);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool;
  EXPECT_THROW(
      pool.run(3,
               [&](std::size_t tid) {
                 if (tid == 1) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool survives a throwing job and stays usable.
  std::atomic<int> count{0};
  pool.run(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, NestedRunExecutesInline) {
  ThreadPool pool;
  std::atomic<int> inner_total{0};
  pool.run(2, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    // A nested dispatch from a worker serialises instead of deadlocking.
    pool.run(4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8);
}

TEST(ThreadPool, ConcurrentDriversSerialiseSafely) {
  // Two application threads sharing one pool (the documented
  // shared-ExecutionContext pattern): jobs must serialise on the dispatch
  // lock, never corrupt each other's team bookkeeping.
  ThreadPool pool;
  std::atomic<int> total{0};
  auto driver = [&] {
    for (int i = 0; i < 50; ++i) {
      pool.run(3, [&](std::size_t) { total.fetch_add(1); });
    }
  };
  std::thread a(driver);
  std::thread b(driver);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 50 * 3);
}

TEST(ThreadPool, ReservePreSpawnsWithoutDispatching) {
  ThreadPool pool;
  pool.reserve(4);
  EXPECT_EQ(pool.threads_spawned(), 4u);
  EXPECT_EQ(pool.jobs_dispatched(), 0u);
  pool.reserve(1);  // no-op
  pool.reserve(4);  // already satisfied
  EXPECT_EQ(pool.threads_spawned(), 4u);
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  ThreadPool& a = default_thread_pool();
  ThreadPool& b = default_thread_pool();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// The epoch loop (solvers::detail::run_epochs) on the pool
// ---------------------------------------------------------------------------

/// Observer that counts epochs and optionally stops after `stop_after`.
class FenceProbe : public solvers::TrainingObserver {
 public:
  explicit FenceProbe(std::vector<std::atomic<std::size_t>>* progress,
                      std::size_t stop_after = 0)
      : progress_(progress), stop_after_(stop_after) {}

  bool on_epoch(const solvers::TracePoint& p) override {
    if (progress_ && p.epoch > 0) {
      // Fence contract: when epoch e is recorded, EVERY worker has finished
      // exactly e epochs — no worker is mid-epoch or ahead.
      for (auto& done : *progress_) EXPECT_EQ(done.load(), p.epoch);
    }
    ++epochs_seen_;
    return stop_after_ == 0 || p.epoch < stop_after_;
  }

  std::size_t epochs_seen() const { return epochs_seen_; }

 private:
  std::vector<std::atomic<std::size_t>>* progress_;
  std::size_t stop_after_;
  std::size_t epochs_seen_ = 0;
};

/// Observer that hands every recorded point to `fn`; false stops the run.
class PointProbe : public solvers::TrainingObserver {
 public:
  explicit PointProbe(std::function<bool(const solvers::TracePoint&)> fn)
      : fn_(std::move(fn)) {}

  bool on_epoch(const solvers::TracePoint& p) override { return fn_(p); }

 private:
  std::function<bool(const solvers::TracePoint&)> fn_;
};

/// `epochs` epochs of `threads` workers, each calling `worker(tid, epoch)`.
template <class WorkerFn>
double run_team(ThreadPool& pool, solvers::SharedModel& model,
                solvers::TraceRecorder& recorder, std::size_t epochs,
                std::size_t threads, WorkerFn&& worker) {
  return solvers::detail::run_epochs(
      pool, threads, model.wild_view(), recorder, /*first_epoch=*/1, epochs,
      [&](std::size_t epoch) {
        pool.run(threads, [&](std::size_t tid) { worker(tid, epoch); });
      },
      solvers::detail::no_fence);
}

TEST(EpochFence, OrderingAllWorkersQuiescentAtEveryFence) {
  ThreadPool pool;
  const std::size_t threads = 3, epochs = 6;
  solvers::SharedModel model(4);
  std::vector<std::atomic<std::size_t>> progress(threads);
  FenceProbe probe(&progress);
  solvers::TraceRecorder recorder("fence-test", threads, 0.1, null_eval(),
                                  &probe);
  const double seconds = run_team(
      pool, model, recorder, epochs, threads,
      [&](std::size_t tid, std::size_t epoch) {
        EXPECT_EQ(progress[tid].load(), epoch - 1);  // release ordering
        progress[tid].fetch_add(1);
      });
  EXPECT_GE(seconds, 0.0);
  const auto trace = std::move(recorder).finish(seconds);
  EXPECT_EQ(trace.points.size(), epochs + 1);  // epoch 0 + each fence
  for (auto& done : progress) EXPECT_EQ(done.load(), epochs);
}

TEST(EpochFence, EarlyStopDrainsMidRunAndPoolStaysUsable) {
  ThreadPool pool;
  const std::size_t threads = 2, epochs = 10, stop_after = 3;
  solvers::SharedModel model(4);
  std::vector<std::atomic<std::size_t>> progress(threads);
  FenceProbe probe(&progress, stop_after);
  solvers::TraceRecorder recorder("stop-test", threads, 0.1, null_eval(),
                                  &probe);
  (void)run_team(
      pool, model, recorder, epochs, threads,
      [&](std::size_t tid, std::size_t) { progress[tid].fetch_add(1); });
  // Drained exactly at the stop fence: no worker ran a single extra epoch.
  for (auto& done : progress) EXPECT_EQ(done.load(), stop_after);
  const auto trace = std::move(recorder).finish(0.0);
  EXPECT_EQ(trace.points.size(), stop_after + 1);
  // The pool is immediately reusable for the next run.
  std::atomic<int> count{0};
  pool.run(threads, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(threads));
}

TEST(EpochFence, ASleepingFenceIsNotCountedOnTheClock) {
  // Fence work (checkpoint capture, a source's end_epoch) runs with the
  // clock paused: three 40 ms fences around three empty dispatches must
  // leave the returned clock, and every point's, far below one fence.
  ThreadPool pool;
  const std::size_t threads = 2, epochs = 3;
  solvers::SharedModel model(4);
  solvers::TraceRecorder recorder("clock-test", threads, 0.1, null_eval());
  std::size_t fences = 0;
  const double seconds = solvers::detail::run_epochs(
      pool, threads, model.wild_view(), recorder, /*first_epoch=*/1, epochs,
      [&](std::size_t) { pool.run(threads, [](std::size_t) {}); },
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        ++fences;
      });
  EXPECT_EQ(fences, epochs);
  EXPECT_LT(seconds, 0.04);
  const auto trace = std::move(recorder).finish(seconds);
  ASSERT_EQ(trace.points.size(), epochs + 1);
  for (const auto& p : trace.points) EXPECT_LT(p.seconds, 0.04);
}

TEST(EpochFence, TheFenceRunsBeforeTheObserverSeesTheEpochsPoint) {
  // A resumed run (first_epoch 3): the restored model is recorded as epoch
  // 2, then each epoch runs its body, its fence, and only then its record.
  ThreadPool pool;
  const std::size_t first = 3, epochs = 5;
  solvers::SharedModel model(4);
  std::vector<std::size_t> bodies, fences, seen;
  PointProbe probe([&](const solvers::TracePoint& p) {
    EXPECT_EQ(fences.empty() ? first - 1 : fences.back(), p.epoch);
    EXPECT_EQ(bodies.size(), fences.size());
    seen.push_back(p.epoch);
    return true;
  });
  solvers::TraceRecorder recorder("order-test", 2, 0.1, null_eval(), &probe);
  (void)solvers::detail::run_epochs(
      pool, 2, model.wild_view(), recorder, first, epochs,
      [&](std::size_t epoch) {
        EXPECT_EQ(bodies.size(), fences.size());
        bodies.push_back(epoch);
      },
      [&](std::size_t epoch) {
        ASSERT_FALSE(bodies.empty());
        EXPECT_EQ(bodies.back(), epoch);
        fences.push_back(epoch);
      });
  EXPECT_EQ(bodies, (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(fences, bodies);
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3, 4, 5}));
}

TEST(EpochFence, AStopAtTheInitialPointRunsNothingAndSpawnsNoWorker) {
  ThreadPool pool;
  const std::size_t threads = 4;
  solvers::SharedModel model(4);
  PointProbe probe([](const solvers::TracePoint&) { return false; });
  solvers::TraceRecorder recorder("stop-at-0", threads, 0.1, null_eval(),
                                  &probe);
  std::size_t bodies = 0, fences = 0;
  const double seconds = solvers::detail::run_epochs(
      pool, threads, model.wild_view(), recorder, /*first_epoch=*/1, 5,
      [&](std::size_t) {
        ++bodies;
        pool.run(threads, [](std::size_t) {});
      },
      [&](std::size_t) { ++fences; });
  EXPECT_EQ(seconds, 0.0);
  EXPECT_EQ(bodies, 0u);
  EXPECT_EQ(fences, 0u);
  EXPECT_EQ(pool.threads_spawned(), 0u);
  EXPECT_EQ(std::move(recorder).finish(seconds).points.size(), 1u);
}

TEST(ThreadPoolBackground, SubmitRunsTasksOffTheCallingThread) {
  ThreadPool pool;
  std::atomic<int> ran{0};
  std::atomic<bool> on_caller{false};
  const auto caller = std::this_thread::get_id();
  for (int i = 0; i < 32; ++i) {
    pool.submit([&, caller] {
      if (std::this_thread::get_id() == caller) on_caller = true;
      ran.fetch_add(1);
    });
  }
  pool.drain_background();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(on_caller.load());
  EXPECT_GE(pool.background_threads(), 1u);
}

TEST(ThreadPoolBackground, LaneIsDisjointFromFencedWorkers) {
  ThreadPool pool;
  pool.run(4, [](std::size_t) {});
  const auto fenced = pool.threads_spawned();
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  pool.drain_background();
  // Background work spawned no fenced workers and vice versa.
  EXPECT_EQ(pool.threads_spawned(), fenced);
  EXPECT_GE(pool.background_threads(), 1u);
  // The fenced lane still works while background tasks are queued.
  std::atomic<int> count{0};
  pool.submit([&] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  pool.run(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
  pool.drain_background();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolBackground, ExceptionLandsInTheFutureNotTheProcess) {
  ThreadPool pool;
  auto future = pool.submit([] { throw std::runtime_error("background"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // A dropped future (prefetch-style fire-and-forget) must not terminate.
  pool.submit([] { throw std::runtime_error("dropped"); });
  pool.drain_background();
  // Still serviceable afterwards.
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  pool.drain_background();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolBackground, SecondWorkerSpawnsWhileFirstIsBusy) {
  ThreadPoolOptions options;
  options.background_workers = 2;
  ThreadPool pool(0, options);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> second_ran{false};
  pool.submit([gate] { gate.wait(); });  // occupies worker 1
  pool.submit([&] { second_ran = true; });
  // Demand counts the executing task, so worker 2 spawns and runs the
  // second task while the first is still blocked.
  for (int spin = 0; spin < 2000 && !second_ran; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(second_ran.load());
  release.set_value();
  pool.drain_background();
  EXPECT_EQ(pool.background_threads(), 2u);
}

TEST(ThreadPoolBackground, DestructorRunsEveryEnqueuedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool;
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    // No drain: destruction must execute the queued tasks, not drop them.
  }
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace isasgd::util
