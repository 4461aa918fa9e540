// The pieces every distributed engine shares, so no two of them can drift:
// the pre-run setup (the Algorithm-4 partition plus one seeded NodeWalk per
// node) and the sparse apply, which is the same fused kernel the Hogwild
// solvers step with (sparse/kernels.hpp).
//
// The fenced round-robin schedule (ClusterSpec::Schedule) is the one both
// the simulators (run_param_server, run_allreduce_sgd) and the real process
// backend (real_runtime.hpp) implement. The event-clock schedule lets
// staleness emerge from the cost model — realistic, but its apply order
// depends on simulated message timing, which no real execution can
// reproduce bit for bit. The fenced schedule removes timing from the
// semantics entirely:
//
//   parameter server   per round, every node with epoch quota left takes
//                      exactly one step in rank order (a = 0..k−1): draw a
//                      sample, compute the gradient against the *current*
//                      model, apply immediately. Staleness is identically 0.
//   all-reduce         per round, each node accumulates its b-sample partial
//                      gradient locally; partials are merged into the global
//                      accumulator in rank order, then one model step.
//
// Every floating-point operation — sample draw (NodeWalk), margin, gradient
// scale, apply (apply_push), partial merge — is order-pinned, so for a fixed
// seed the final model is a pure function of (data, options, k). The real
// backend executes this exact schedule with the PS process enforcing the
// rank order, which is what makes "real run ≡ simulator, bit for bit" a
// testable invariant rather than a hope.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "data/data_source.hpp"
#include "distributed/node_walk.hpp"
#include "objectives/objective.hpp"
#include "partition/partition.hpp"
#include "solvers/options.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dispatch.hpp"
#include "sparse/sparse_vector.hpp"

namespace isasgd::distributed::fenced {

/// THE sparse apply, shared by the simulated PS and the process group's PS
/// server (ps_server.hpp), so they cannot drift. It is the Hogwild solvers'
/// fused kernel (sparse::sparse_dot_residual_axpy through the active backend):
/// left-to-right over the row's nonzeros,
///   w[c] -= scaled_step · (gradient_scale · val[j] + ∂r(w[c])),
/// bit for bit the loop over Regularization::subgradient.
inline void apply_push(std::span<const std::uint32_t> idx,
                       std::span<const double> val, double gradient_scale,
                       double scaled_step,
                       const objectives::Regularization& reg,
                       std::vector<double>& w) {
  sparse::kernels::active().sparse_dot_residual_axpy(
      w, sparse::SparseVectorView(idx, val), scaled_step, gradient_scale,
      reg.eta_l1(), reg.eta_l2());
}

/// Shared pre-run setup: the Algorithm-4 partition plus one seeded NodeWalk
/// per node. Built identically by the simulators and (pre-fork) by the
/// process runtime, so both worlds walk the same plan with the same streams.
struct Setup {
  std::size_t k = 0;
  std::vector<double> importance;  // in-memory: keeps plan spans alive
  std::vector<std::vector<double>> shard_importance;  // sharded
  std::vector<double> shard_phi;                      // sharded
  std::unique_ptr<partition::PartitionPlan> plan;
  std::vector<NodeWalk> walks;  // one per node, seeded

  /// Each walk's draws per epoch, in walk order.
  [[nodiscard]] std::vector<std::size_t> walk_quotas() const {
    std::vector<std::size_t> quotas;
    quotas.reserve(walks.size());
    for (const NodeWalk& walk : walks) quotas.push_back(walk.epoch_quota());
    return quotas;
  }
};

/// Parameter-server setup over an in-memory matrix: the Algorithm-4
/// row-level partition (seeds 0xc0de+a, shuffle seed ^0xd157).
[[nodiscard]] Setup make_ps_setup(const sparse::CsrMatrix& data,
                                  const objectives::Objective& objective,
                                  const solvers::SolverOptions& options,
                                  std::size_t nodes, bool use_importance);

/// Parameter-server setup over any source. One shard is the in-memory case
/// above over source.materialize(). More shards are dealt whole to nodes
/// by the same balancing machinery with shard Φ totals as the importance
/// values; per-shard importance comes from the source's row-stats sidecar
/// when it has one (zero shard loads), else from one sequential pass.
[[nodiscard]] Setup make_ps_setup(const data::DataSource& source,
                                  const objectives::Objective& objective,
                                  const solvers::SolverOptions& options,
                                  std::size_t nodes, bool use_importance);

/// All-reduce setup (seeds 0xa22d+a, shuffle seed ^0xa11d).
[[nodiscard]] Setup make_allreduce_setup(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const solvers::SolverOptions& options, std::size_t nodes,
    bool use_importance);

}  // namespace isasgd::distributed::fenced
