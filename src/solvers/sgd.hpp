// Serial uniform SGD — the paper's baseline (Eq. 3).
#pragma once

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "solvers/options.hpp"
#include "solvers/snapshot.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::solvers {

/// Runs serial SGD with uniform sampling: w ← w − λ·∇f_i(w), i ~ U[0, n).
/// One epoch = ⌈n/b⌉ mini-batches of b draws (n update iterations at
/// b = 1). The regularizer's subgradient is applied on the active row's
/// support (the standard sparse-SGD discipline; see DESIGN.md §5).
/// Cross-epoch state is {model, sampling RNG}; `hooks` captures/restores
/// both at epoch fences (snapshot.hpp).
Trace run_sgd(const sparse::CsrMatrix& data,
              const objectives::Objective& objective,
              const SolverOptions& options, const EvalFn& eval,
              TrainingObserver* observer = nullptr,
              const SnapshotHooks& hooks = {});

/// Out-of-core serial SGD: one epoch = one without-replacement shard-major
/// pass over `source` in the ShardedSequence order (random-reshuffle SGD
/// blocked by shard, so a bounded shard window is resident at any time).
/// Mini-batches are contiguous slices of a shard's row order and never span
/// shards. The "SGD" registry entry dispatches here whenever the source is
/// sharded; results are a pure function of (options.seed, epoch, shard
/// geometry) — independent of the backend serving the shards.
/// Cross-epoch state is the model alone — the shard/row schedule is a pure
/// function of (seed, epoch, shard) — so `hooks` checkpoints here too.
Trace run_sgd_streaming(const data::DataSource& source,
                        const objectives::Objective& objective,
                        const SolverOptions& options, const EvalFn& eval,
                        TrainingObserver* observer = nullptr,
                        const SnapshotHooks& hooks = {});

}  // namespace isasgd::solvers
