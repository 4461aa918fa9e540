// IS-ASGD — Algorithm 4: the paper's contribution.
//
// Pipeline (all offline steps timed as setup):
//   1. compute per-sample importances L_i (Eq. 12 weights),
//   2. compute ρ (Eq. 20) and choose Importance_Balancing (Algorithm 3) or
//      Random_Shuffling adaptively against ζ,
//   3. contiguous-split the rearranged data into numT shards; each worker
//      builds its local distribution P_tid = {L_i / Φ_tid},
//   4. build each worker's sampler for S_tid: one alias table, from which
//      sampling::BlockSequence streams each epoch's sequence in blocks,
//   5. Hogwild training: workers iterate their sequences, updating the
//      shared model with step λ/(N_tid·p_i) — which under importance balance
//      equals the paper's λ/(n·p_it) (line 15).
//
// The computation kernel is identical to ASGD's — that identity is the whole
// point: both run every worker through detail::hogwild_epoch
// (async_runner.hpp), and the ablation benches verify it empirically.
#pragma once

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::core {
class NumaPolicy;
}

namespace isasgd::solvers {

/// Extra introspection from an IS-ASGD run (strategy actually applied, ρ,
/// shard-importance spread) for the balancing ablation.
struct IsAsgdReport {
  partition::Strategy applied_strategy = partition::Strategy::kShuffle;
  double rho = 0;
  double phi_imbalance = 0;  ///< (max Φ − min Φ)/mean Φ across shards
};

/// Runs IS-ASGD. If `report` is non-null it is filled with partition
/// diagnostics; the same diagnostics are published to `observer` as an
/// IsAsgdReport through on_diagnostics. Workers come from `pool` (the
/// process-wide default pool when null). `numa` (optional) enables NUMA
/// model placement: the shared model is striped across the nodes and each
/// worker is pinned next to the node owning its shard, with shard→node
/// assignment balanced over the partition's Φ totals. Placement never
/// changes results — only where the model's pages live.
///
/// `stats` (optional) feeds setup from pack-time row statistics: the
/// kLipschitz importance vector and the adaptive per-shard row norms come
/// from the sidecar instead of an O(nnz) pass over `data`, bit-identically.
Trace run_is_asgd(const sparse::CsrMatrix& data,
                  const objectives::Objective& objective,
                  const SolverOptions& options, const EvalFn& eval,
                  IsAsgdReport* report = nullptr,
                  TrainingObserver* observer = nullptr,
                  util::ThreadPool* pool = nullptr,
                  const core::NumaPolicy* numa = nullptr,
                  const data::RowStats* stats = nullptr);

}  // namespace isasgd::solvers
