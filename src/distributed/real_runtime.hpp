// The process backend of the distributed engines
// (ClusterSpec::Backend::kProcess): run_param_server and run_allreduce_sgd
// build their setup, recorder and report, then hand the fenced schedule to
// one of the functions below, which fork a group out of the calling
// process:
//
//   1 server process    owns the model: the parameter server
//                       (ps_server.hpp), which applies pushes with
//                       fenced::apply_push in the fenced rank order and
//                       ships the model at every epoch fence, or the
//                       all-reduce reducer.
//   k worker processes  each walks its NodeWalk (the simulator's seeded
//                       stream) over the shm or tcp transport; a PS worker
//                       draws one sample ahead, so each push travels with
//                       the next draw's coordinate get.
//   the caller          becomes the controller: it scores the fence-time
//                       models, records the Trace, drives early stopping,
//                       and reaps the group.
//
// Every child is forked *after* the setup, so all processes agree on the
// plan by inheritance; doubles cross the wire as raw IEEE-754 bytes and the
// server replays the simulator's rank order, so the final model is the
// fenced simulator's, bit for bit (tests/dist_process_test.cpp). A child
// that dies mid-run becomes a typed error in the controller, which kills and
// reaps the rest of the group first. A group also ends with its controller:
// each worker dies with the thread that forked it, and the server ends when
// its controller's connection closes.
#pragma once

#include <cstddef>
#include <vector>

#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/fenced.hpp"
#include "distributed/param_server.hpp"
#include "objectives/objective.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"

namespace isasgd::distributed::detail {

/// run_param_server's process backend: the fenced schedule on a forked
/// group over `setup`'s walks. Records every fence into `recorder`, fills
/// `report`'s run counters (simulated_seconds with wall-clock seconds) and
/// returns the model of the last fence.
[[nodiscard]] std::vector<double> run_ps_group(
    fenced::Setup& setup, std::size_t dim,
    const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    solvers::TraceRecorder& recorder, ParamServerReport& report);

/// run_allreduce_sgd's process backend: the server process is the reducer
/// (rank-order partial merge, the fenced simulator's order), and workers
/// keep bit-exact model replicas via sparse coordinate broadcasts. Same
/// contract as run_ps_group.
[[nodiscard]] std::vector<double> run_allreduce_group(
    fenced::Setup& setup, std::size_t dim, std::size_t rounds_per_epoch,
    std::size_t batch, const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    solvers::TraceRecorder& recorder, AllreduceReport& report);

}  // namespace isasgd::distributed::detail
