// The pluggable solver API: Solver + SolverRegistry.
//
// Each algorithm in the suite is a Solver subclass registered by name in the
// process-wide SolverRegistry from a static initialiser in its own
// translation unit. Adding a solver therefore touches zero core files:
//
//   // my_solver.cpp
//   namespace {
//   class MySolver final : public isasgd::solvers::Solver {
//    public:
//     std::string_view name() const noexcept override { return "MY-SOLVER"; }
//     SolverCapabilities capabilities() const noexcept override {
//       return {.parallel = true};
//     }
//    protected:
//     Trace run_impl(const SolverContext& ctx) const override { ... }
//   };
//   ISASGD_REGISTER_SOLVER(MySolver);
//   }  // namespace
//
// Lookup is name-based and case/punctuation-insensitive ("IS-ASGD" and
// "is_asgd" resolve identically). core::Trainer::train(name, ...) and the
// experiment sweeps dispatch exclusively through the registry; the legacy
// solvers::Algorithm enum shim was removed after its one release of grace.
// Dotted names namespace solver families ("dist.ps.is_asgd",
// "sim.delayed_sgd" — the simulated-time solvers from src/distributed/ and
// src/simulate/).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "solvers/observer.hpp"
#include "solvers/options.hpp"
#include "solvers/snapshot.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::distributed {
struct ClusterSpec;
}

namespace isasgd::core {
class NumaPolicy;
}

namespace isasgd::solvers {

/// Static facts about a solver, used by sweeps/CLIs to plan runs (e.g. a
/// serial solver is run once regardless of the requested thread counts).
/// Subsumes the old core::is_serial(Algorithm) switch.
struct SolverCapabilities {
  /// Honours SolverOptions::threads with concurrent workers.
  bool parallel = false;
  /// Samples from an importance distribution (Eq. 12 / Eq. 16).
  bool importance_sampling = false;
  /// Variance-reduced family (SVRG/SAG/SAGA-style dense aggregates).
  bool variance_reduced = false;
  /// Handles the regularizer through its prox map (exact sparsity for L1).
  bool proximal = false;
  /// Trains shard-by-shard from a data::DataSource without materialising
  /// the full matrix — out-of-core capable. Solvers without this flag still
  /// run on any source, through ctx.data()'s materialising fallback.
  bool streaming = false;
  /// Advances a simulated clock (discrete-event cluster or delay-injection
  /// engine, src/sim/): the produced Trace's time axis is simulated seconds
  /// (Trace::simulated_time is set), parallelism comes from the
  /// SolverContext's ClusterSpec rather than SolverOptions::threads, and
  /// runs are bit-reproducible for a fixed seed. Evaluators/sweeps must not
  /// compare these times against host wall-clock traces.
  bool simulated_time = false;
  /// Supports deterministic checkpoint/resume: honours SnapshotHooks —
  /// captures complete cross-epoch state at epoch fences into a
  /// SnapshotSink, restores from a SnapshotState, and guarantees the final
  /// model of a kill-at-fence-k + resume run is bit-identical to the
  /// uninterrupted run (see snapshot.hpp; enforced by
  /// tests/checkpoint_test.cpp for every solver declaring this).
  bool checkpointable = false;

  /// Ignores the thread count — one run covers every requested count.
  [[nodiscard]] bool serial() const noexcept { return !parallel; }
};

/// Everything a solver needs for one run. `source` and `objective` must
/// outlive the call; `observer` may be null. `pool` is the persistent
/// worker pool parallel solvers draw their teams from — normally the one
/// owned by the caller's core::ExecutionContext, shared across train calls
/// so worker threads are spawned once, not per run. Null falls back to the
/// process-wide default pool (serial solvers never touch it).
struct SolverContext {
  const data::DataSource& source;
  const objectives::Objective& objective;
  SolverOptions options;
  EvalFn eval;
  TrainingObserver* observer = nullptr;
  util::ThreadPool* pool = nullptr;
  /// Simulated-cluster cost model for the dist.* solvers, normally the one
  /// configured through core::TrainerBuilder::cluster(...) and carried by
  /// the ExecutionContext. Null ⇒ the default ClusterSpec (a 4-node 10 GbE
  /// cluster); non-simulated solvers ignore it entirely.
  const distributed::ClusterSpec* cluster = nullptr;
  /// NUMA placement policy (core/numa.hpp), normally the ExecutionContext's
  /// detected-topology policy. Null or inactive ⇒ flat allocation and no
  /// worker pinning — the pre-NUMA behaviour. Consulted by the shared-model
  /// solvers (is_asgd, asgd) to stripe the model across nodes and pin
  /// workers next to their shards.
  const core::NumaPolicy* numa = nullptr;
  /// Checkpoint endpoints (snapshot.hpp): resume-from state and/or a
  /// fence-time capture sink. Only consulted by solvers declaring
  /// capabilities().checkpointable; Solver::train rejects hooks on any
  /// other solver so a service can fail a checkpoint request up front
  /// instead of silently training without one.
  SnapshotHooks snapshot;

  /// Wall-clock seconds data() spent materializing a non-resident source.
  /// Solver::train adds them to the trace's setup_seconds: they are setup
  /// the solver's own stopwatch, started after data() returns, never sees.
  mutable double materialize_seconds = 0;

  /// The dataset as one full matrix — the classic in-memory view every
  /// non-streaming solver consumes. Free for in-memory sources; on a
  /// streaming source this materialises (and caches) the whole file, which
  /// works but defeats the memory budget — streaming-capable solvers
  /// iterate source.shard(...) instead and never call this. Call it from
  /// the thread driving the run: it records into materialize_seconds.
  [[nodiscard]] const sparse::CsrMatrix& data() const;

  /// True when this run should take the shard-major path: the source is
  /// split into more than one shard (out-of-core, or the chunked in-memory
  /// reference geometry for streaming parity runs). A single-shard source —
  /// even a streaming one, whose lone shard is the whole dataset anyway —
  /// takes the classic path, so both backends produce identical arithmetic
  /// at every shard geometry, including the degenerate one.
  [[nodiscard]] bool sharded() const noexcept {
    return source.shard_count() > 1;
  }
};

/// Abstract solver. Subclasses implement run_impl; callers use train(),
/// which validates options and brackets the run with the observer's
/// begin/end callbacks so every solver reports identically.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Canonical display name, e.g. "IS-ASGD" (also the Trace::algorithm tag).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  [[nodiscard]] virtual SolverCapabilities capabilities() const noexcept = 0;

  /// Normalises `options` in place and rejects configurations this solver
  /// cannot run (throws std::invalid_argument). Overrides must call it.
  virtual void validate(SolverOptions& options) const;

  /// Validates ctx.options, then runs with observer begin/end bracketing.
  /// Throws std::invalid_argument when batch_size exceeds the source's rows.
  [[nodiscard]] Trace train(SolverContext ctx) const;

 protected:
  /// The algorithm itself. `ctx.options` arrives validated.
  [[nodiscard]] virtual Trace run_impl(const SolverContext& ctx) const = 0;
};

/// Process-wide name → Solver table. Registration normally happens via
/// ISASGD_REGISTER_SOLVER at static-init time; register_solver stays public
/// so tests and downstream applications can plug in solvers at runtime
/// (lookups and registration are mutex-guarded, and solvers are never
/// removed, so a returned Solver* stays valid for the process lifetime).
class SolverRegistry {
 public:
  /// The singleton instance.
  static SolverRegistry& instance();

  /// Lookup key normalisation: lower-case, '-' → '_' (so "IS-ASGD",
  /// "is-asgd" and "is_asgd" all address the same solver).
  [[nodiscard]] static std::string normalize(std::string_view name);

  /// Registers `solver` under its canonical name. Throws std::logic_error
  /// on a duplicate name or a null solver.
  void register_solver(std::unique_ptr<Solver> solver);

  /// Returns the solver registered under `name` (any normalisation-
  /// equivalent spelling), or nullptr when absent.
  [[nodiscard]] const Solver* find(std::string_view name) const noexcept;

  /// Like find, but throws std::invalid_argument listing every registered
  /// name when `name` is unknown.
  [[nodiscard]] const Solver& get(std::string_view name) const;

  /// Canonical names in registration order — the menu for CLIs and benches.
  [[nodiscard]] std::vector<std::string> list() const;

  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

 private:
  SolverRegistry() = default;

  struct Entry {
    std::string key;  // normalized
    std::unique_ptr<Solver> solver;
  };
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // registration order; ~a dozen entries
};

/// RAII registrar backing ISASGD_REGISTER_SOLVER.
struct SolverRegistration {
  explicit SolverRegistration(std::unique_ptr<Solver> solver) {
    SolverRegistry::instance().register_solver(std::move(solver));
  }
};

/// Registers `SolverType` (default-constructed) at static-init time. Place
/// at namespace scope in the solver's own .cpp. The library is linked as an
/// object library so these initialisers are never dropped.
#define ISASGD_REGISTER_SOLVER(SolverType)                       \
  const ::isasgd::solvers::SolverRegistration                    \
      solver_registration_for_##SolverType {                     \
    std::make_unique<SolverType>()                               \
  }

}  // namespace isasgd::solvers
