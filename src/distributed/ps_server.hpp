// The process group's parameter server: the one server of the paper's
// distributed IS-ASGD (Algorithm 4), which owns the model and applies every
// worker's sparse push to it.
//
// run_param_server's process backend (real_runtime.hpp) forks it as the
// group's server process. It speaks the sequenced protocol of ps_wire.hpp: it
// answers coordinate gets, applies pushes with fenced::apply_push in the
// fenced rank order, executes each request of a rank exactly once (a
// retransmit is answered from the rank's cached reply), and ships the model
// to the controller at every epoch fence (ps_server.cpp, PsServer).
#pragma once

#include <cstddef>
#include <memory>

#include "distributed/cluster.hpp"
#include "net/transport.hpp"
#include "solvers/options.hpp"

namespace isasgd::distributed {

/// Serves one group on `listener`, which is already bound: accepts the
/// controller and one worker per rank in [0, k), then serves epochs on a
/// `dim`-dimensional model that starts at zero, applying pushes under
/// `options.reg`, until the controller's fence reply stops the run. A frame
/// that breaks the protocol (a coordinate past the model, a count its
/// payload cannot hold, a push that does not match its step or names a walk
/// ≥ k, a sequence number that skips ahead, a duplicate rank) throws
/// net::TransportError of kind kProtocol.
void serve_parameter_server(std::unique_ptr<net::Listener> listener,
                            std::size_t k, std::size_t dim,
                            const solvers::SolverOptions& options,
                            const ClusterSpec& spec);

}  // namespace isasgd::distributed
