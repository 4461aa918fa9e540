// The shard-major epoch driver: the out-of-core counterpart of
// async_runner.hpp's epoch-fenced loops, shared by serial and parallel runs.
//
// One epoch = one pass over every shard of a data::DataSource, shards and
// within-shard rows both visited in the ShardedSequence order (a pure
// function of seed/epoch/shard, so results never depend on cache or
// prefetch state). While shard k is being processed, the next
// source.prefetch_depth() shards of the epoch's order are prefetched on the
// pool's background lane — on a streaming source the next reads overlap
// this shard's compute; on an in-memory source prefetch is a no-op. Each
// epoch ends with source.end_epoch(), the autotuner's observation point.
//
// Shard I/O deliberately lands *inside* the timed window: streaming traces
// measure true out-of-core throughput, which is exactly what
// bench/streaming compares against the in-memory path. Evaluation stays
// outside the clock, as everywhere else.
#pragma once

#include <cstddef>

#include "data/data_source.hpp"
#include "sampling/sequence.hpp"
#include "solvers/model.hpp"
#include "solvers/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers::detail {

/// Shard-major epochs: per shard, `threads` workers run
/// `worker_shard(tid, shard, row_order, epoch)` concurrently on the shared
/// model (lock-free within the shard, exactly Hogwild inside a bounded
/// working set); the pool fence between shards is what lets the next shard
/// rotate in while the model stays consistent enough to evict the previous
/// one. Workers split `row_order` by contiguous slices of tid; a team of 1
/// is the serial pass, run inline on the calling thread. Returns total
/// training seconds and records one trace point per epoch.
///
/// `fence(epoch)` runs after each epoch's shards complete, outside the
/// clock and before the epoch's record — checkpoint capture lands there.
/// A resumed run starts at `first_epoch` = fence + 1 and records the
/// restored model as its initial point, like run_epoch_fenced_serial_range:
/// the ShardedSequence schedule is a pure function of (seed, epoch, shard),
/// so the remaining epochs replay exactly the shard/row orders the
/// uninterrupted run would have used — no sampler state to restore.
template <class WorkerShardFn, class FenceFn>
double run_epoch_fenced_sharded(util::ThreadPool& pool,
                                const data::DataSource& source,
                                sampling::ShardedSequence& schedule,
                                SharedModel& model, TraceRecorder& recorder,
                                std::size_t first_epoch, std::size_t epochs,
                                std::size_t threads,
                                WorkerShardFn&& worker_shard,
                                FenceFn&& fence) {
  // Fence-time scoring reads the raw wild_view (pool quiescent ⇒ exact):
  // the epoch loop never allocates a snapshot vector.
  recorder.record(first_epoch - 1, 0.0, model.wild_view());
  if (recorder.stop_requested()) return 0.0;
  pool.reserve(threads);

  util::AccumulatingTimer clock;
  for (std::size_t epoch = first_epoch; epoch <= epochs; ++epoch) {
    schedule.begin_epoch(epoch);
    const auto order = schedule.shard_order();
    const std::size_t depth = source.prefetch_depth();
    clock.start();
    for (std::size_t k = 0; k < order.size(); ++k) {
      for (std::size_t d = 1; d <= depth && k + d < order.size(); ++d) {
        source.prefetch(order[k + d]);
      }
      const data::ShardPtr shard = source.shard(order[k]);
      const auto row_order = schedule.rows(order[k]);
      pool.run(threads, [&](std::size_t tid) {
        worker_shard(tid, *shard, row_order, epoch);
      });
    }
    clock.stop();  // fence: all workers arrived, clock paused for scoring
    source.end_epoch();
    fence(epoch);
    recorder.record(epoch, clock.seconds(), model.wild_view());
    if (recorder.stop_requested()) break;
  }
  return clock.seconds();
}

}  // namespace isasgd::solvers::detail
