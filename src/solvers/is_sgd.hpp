// IS-SGD — Algorithm 2: serial SGD with importance sampling.
//
// Sampling distribution P = {p_i ∝ L_i} is constructed once (Eq. 12) as an
// alias table; each epoch's sample sequence is drawn from it a block at a
// time inside the epoch (sampling::BlockSequence) and fed to SGD's step loop
// (detail::hogwild_epoch), with updates re-weighted by 1/(n·p_i) for
// unbiasedness (Eq. 8).
#pragma once

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "solvers/options.hpp"
#include "solvers/snapshot.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::solvers {

/// Runs serial importance-sampled SGD. The importance pass and the alias
/// build are accounted to Trace::setup_seconds, the cost the paper's §4.2
/// overhead discussion covers; the draws themselves land in the epochs.
///
/// Checkpointing (`hooks`, snapshot.hpp): in static mode the importance
/// distribution is recomputed at setup (a pure function of the dataset and
/// options) and the i.i.d. draw stream reseeds per epoch, so the snapshot
/// carries the model alone; the shuffled sequence modes additionally replay
/// their reshuffle stream via BlockSequence::rewind_to. Adaptive mode also
/// snapshots its live state: per-sample |φ'| cache, current importance
/// vector, and the first-refresh flag.
///
/// `stats` (optional) feeds setup from pack-time row statistics: the
/// kLipschitz importance vector and the adaptive row norms come from the
/// sidecar instead of an O(nnz) pass over `data`, bit-identically (the
/// sidecar stores the exact squared norms the loaded path would compute).
Trace run_is_sgd(const sparse::CsrMatrix& data,
                 const objectives::Objective& objective,
                 const SolverOptions& options, const EvalFn& eval,
                 TrainingObserver* observer = nullptr,
                 const SnapshotHooks& hooks = {},
                 const data::RowStats* stats = nullptr);

}  // namespace isasgd::solvers
