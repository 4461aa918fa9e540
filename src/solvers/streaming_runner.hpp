// The shard-major epoch: the out-of-core pass run_epochs (async_runner.hpp)
// times as the epoch body of a serial or parallel run.
//
// One epoch = one pass over every shard of a data::DataSource, shards and
// within-shard rows both visited in the ShardedSequence order (a pure
// function of seed/epoch/shard, so results never depend on cache or
// prefetch state). While shard k is being processed, the next
// source.prefetch_depth() shards of the epoch's order are prefetched on the
// pool's background lane — on a streaming source the next reads overlap
// this shard's compute; on an in-memory source prefetch is a no-op. The
// caller's fence ends each epoch with source.end_epoch(), the autotuner's
// observation point.
//
// Shard I/O deliberately lands *inside* the timed window: streaming traces
// measure true out-of-core throughput, which is exactly what
// bench/streaming compares against the in-memory path. Evaluation stays
// outside the clock, as everywhere else.
#pragma once

#include <cstddef>

#include "data/data_source.hpp"
#include "sampling/sequence.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::solvers::detail {

/// One shard-major epoch: per shard, `team` workers run
/// `worker_shard(tid, shard, row_order)` concurrently on the shared model
/// (lock-free within the shard, exactly Hogwild inside a bounded working
/// set); the pool fence between shards is what lets the next shard rotate
/// in while the model stays consistent enough to evict the previous one.
/// Workers split `row_order` by contiguous slices of tid; a team of 1 is
/// the serial pass, run inline on the calling thread.
///
/// A resumed run needs no sampler state here: the schedule is a pure
/// function of (seed, epoch, shard), so the remaining epochs replay exactly
/// the shard/row orders the uninterrupted run would have used.
template <class WorkerShardFn>
void shard_epoch(util::ThreadPool& pool, std::size_t team,
                 const data::DataSource& source,
                 sampling::ShardedSequence& schedule, std::size_t epoch,
                 WorkerShardFn&& worker_shard) {
  schedule.begin_epoch(epoch);
  const auto order = schedule.shard_order();
  const std::size_t depth = source.prefetch_depth();
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (std::size_t d = 1; d <= depth && k + d < order.size(); ++d) {
      source.prefetch(order[k + d]);
    }
    const data::ShardPtr shard = source.shard(order[k]);
    const auto row_order = schedule.rows(order[k]);
    pool.run(team, [&](std::size_t tid) {
      worker_shard(tid, *shard, row_order);
    });
  }
}

}  // namespace isasgd::solvers::detail
