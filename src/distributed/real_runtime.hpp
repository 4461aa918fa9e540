// Real multi-process execution of the dist.* solvers
// (ClusterSpec::Backend::kProcess).
//
// run_*_process fork a process group out of the calling process:
//
//   1 parameter-server process   owns the model; serves coordinate gets,
//                                applies pushes (fenced::apply_push — the
//                                simulator's apply, which is the Hogwild
//                                solvers' fused sparse kernel) in the
//                                fenced rank order, answering a get early
//                                when no push still due before it writes
//                                its coordinates, and ships the model to
//                                the controller at every epoch fence. One
//                                frame wait serves its window, rejoin
//                                admissions and shutdown drain: read the
//                                rank's next frame, accepting reconnects
//                                while its connection is down. It lives in
//                                ps_server.hpp (serve_parameter_server).
//   k worker processes           each walks its NodeWalk (the same seeded
//                                stream the simulator uses), one sample
//                                ahead: each push travels with the next
//                                draw's coordinate get, over the
//                                ClusterSpec-selected transport (shm or
//                                tcp).
//   the calling process          becomes the controller: it evaluates the
//                                fence-time models, records the Trace,
//                                drives early stopping, and reaps the group.
//
// Because every child is forked *after* the shared setup (partition plan +
// seeded walks) is built, all processes agree on the plan by construction;
// because doubles cross the wire as raw IEEE-754 bytes and the server
// replays the simulator's rank order, the final model is bit-identical to
// run_param_server / run_allreduce_sgd under Schedule::kFencedRoundRobin
// for the same options — asserted per solver by
// tests/dist_process_test.cpp.
//
// Traces carry host wall-clock seconds (not simulated seconds): this is a
// real execution. A child that dies mid-run surfaces as a typed error in
// the controller, which kills and reaps the rest of the group before
// rethrowing — no zombies, no hangs.
#pragma once

#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "objectives/objective.hpp"
#include "solvers/observer.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::distributed {

/// Fenced parameter-server training over a real 1-server/k-worker process
/// group. Contract mirrors run_param_server on the fenced schedule;
/// `spec.backend` must be kProcess (validate() enforces the fenced
/// schedule). The report's simulated_seconds field carries wall-clock
/// seconds.
[[nodiscard]] solvers::Trace run_param_server_process(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    bool use_importance, const solvers::EvalFn& eval,
    ParamServerReport* report = nullptr,
    solvers::TrainingObserver* observer = nullptr);

/// Fenced synchronous all-reduce over a real process group: the server
/// process is the reducer (rank-order partial merge — the same order as
/// run_allreduce_sgd on the fenced schedule), workers keep bit-exact model
/// replicas via sparse coordinate broadcasts.
[[nodiscard]] solvers::Trace run_allreduce_process(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    bool use_importance, const solvers::EvalFn& eval,
    AllreduceReport* report = nullptr,
    solvers::TrainingObserver* observer = nullptr);

}  // namespace isasgd::distributed
