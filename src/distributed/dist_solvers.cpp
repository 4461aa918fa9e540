// Registry wrappers folding the distributed simulation into the unified
// solver architecture: the parameter-server and all-reduce engines become
// first-class solvers::Solver citizens, addressable through
// core::Trainer::train(name, ...) like every serial solver —
//
//   dist.ps.is_asgd     parameter-server IS-ASGD (balanced node shards,
//                       local Eq. 12 sampling, sparse async pushes)
//   dist.ps.asgd        parameter-server ASGD (uniform sampling baseline)
//   dist.allreduce.sgd  synchronous data-parallel SGD over a simulated
//                       ring all-reduce (the dense-collective baseline)
//
// All three read their ClusterSpec from SolverContext::cluster — configured
// once via core::TrainerBuilder::cluster(...) — falling back to the default
// spec (4-node 10 GbE) when none was set, and publish their typed report
// (ParamServerReport / AllreduceReport) through
// TrainingObserver::on_diagnostics. Capabilities carry simulated_time so
// sweeps know the trace's time axis is simulated seconds, and the
// parameter-server pair is streaming-capable: the simulated parameter
// server takes the DataSource itself, and on a multi-shard source the node
// shards are whole source partitions dealt by the Algorithm-4 balancing
// machinery (fenced::make_ps_setup), so an out-of-core file can feed the
// simulated cluster shard-by-shard.
// Backend dispatch (ClusterSpec::backend):
//   kSimulate  the simulators, which read their ordering from
//              ClusterSpec::schedule (event clock by default, or the
//              deterministic fenced round robin)
//   kProcess   real 1-server/k-worker process group (real_runtime.hpp,
//              fenced only); traces carry host wall-clock seconds, and a
//              sharded source is materialised first (the process backend
//              partitions in memory pre-fork).
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "distributed/real_runtime.hpp"
#include "solvers/solver.hpp"

namespace isasgd::distributed {

namespace {

/// The context's cluster spec, or the documented default.
ClusterSpec cluster_or_default(const solvers::SolverContext& ctx) {
  return ctx.cluster ? *ctx.cluster : ClusterSpec{};
}

class ParamServerSolver : public solvers::Solver {
 public:
  explicit ParamServerSolver(bool use_importance)
      : use_importance_(use_importance) {}

  solvers::SolverCapabilities capabilities() const noexcept override {
    return {.importance_sampling = use_importance_,
            .streaming = true,
            .simulated_time = true};
  }

 protected:
  solvers::Trace run_impl(const solvers::SolverContext& ctx) const override {
    const ClusterSpec spec = cluster_or_default(ctx);
    if (spec.backend == Backend::kProcess) {
      return run_param_server_process(ctx.data(), ctx.objective, ctx.options,
                                      spec, use_importance_, ctx.eval,
                                      /*report=*/nullptr, ctx.observer);
    }
    return run_param_server(ctx.source, ctx.objective, ctx.options, spec,
                            use_importance_, ctx.eval, /*report=*/nullptr,
                            ctx.observer);
  }

 private:
  bool use_importance_;
};

class PsIsAsgdSolver final : public ParamServerSolver {
 public:
  PsIsAsgdSolver() : ParamServerSolver(/*use_importance=*/true) {}
  std::string_view name() const noexcept override { return "dist.ps.is_asgd"; }
};

class PsAsgdSolver final : public ParamServerSolver {
 public:
  PsAsgdSolver() : ParamServerSolver(/*use_importance=*/false) {}
  std::string_view name() const noexcept override { return "dist.ps.asgd"; }
};

class AllreduceSgdSolver final : public solvers::Solver {
 public:
  std::string_view name() const noexcept override {
    return "dist.allreduce.sgd";
  }
  solvers::SolverCapabilities capabilities() const noexcept override {
    return {.simulated_time = true};
  }

 protected:
  solvers::Trace run_impl(const solvers::SolverContext& ctx) const override {
    const ClusterSpec spec = cluster_or_default(ctx);
    if (spec.backend == Backend::kProcess) {
      return run_allreduce_process(ctx.data(), ctx.objective, ctx.options,
                                   spec, /*use_importance=*/false, ctx.eval,
                                   /*report=*/nullptr, ctx.observer);
    }
    return run_allreduce_sgd(ctx.data(), ctx.objective, ctx.options, spec,
                             /*use_importance=*/false, ctx.eval,
                             /*report=*/nullptr, ctx.observer);
  }
};

ISASGD_REGISTER_SOLVER(PsIsAsgdSolver);
ISASGD_REGISTER_SOLVER(PsAsgdSolver);
ISASGD_REGISTER_SOLVER(AllreduceSgdSolver);

}  // namespace

}  // namespace isasgd::distributed
