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
// parameter-server pair is streaming-capable: the parameter server takes
// the DataSource itself, and on a multi-shard source the node shards are
// whole source partitions dealt by the Algorithm-4 balancing machinery
// (fenced::make_ps_setup), so an out-of-core file feeds the cluster
// shard-by-shard. Each engine reads ClusterSpec::backend itself (simulator
// or forked process group).
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
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
    return run_param_server(ctx.source, ctx.objective, ctx.options,
                            cluster_or_default(ctx), use_importance_, ctx.eval,
                            /*report=*/nullptr, ctx.observer);
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
    return run_allreduce_sgd(ctx.source, ctx.objective, ctx.options,
                             cluster_or_default(ctx), /*use_importance=*/false,
                             ctx.eval, /*report=*/nullptr, ctx.observer);
  }
};

ISASGD_REGISTER_SOLVER(PsIsAsgdSolver);
ISASGD_REGISTER_SOLVER(PsAsgdSolver);
ISASGD_REGISTER_SOLVER(AllreduceSgdSolver);

}  // namespace

}  // namespace isasgd::distributed
