// Common configuration for all solvers.
#pragma once

#include <cstdint>
#include <string>

#include "objectives/objective.hpp"
#include "partition/partition.hpp"
#include "solvers/schedule.hpp"

namespace isasgd::solvers {

// The deprecated solvers::Algorithm enum (and algorithm_name /
// algorithm_from_name) was removed after its one release of grace — address
// solvers by SolverRegistry name ("is_asgd", "SVRG-SGD", "dist.ps.is_asgd",
// ...) through core::Trainer::train(name, ...).

/// How concurrent workers write the shared model (see model.hpp).
enum class UpdatePolicy {
  kWild,     ///< relaxed load/add/store — Hogwild's racy semantics
  kAtomic,   ///< relaxed fetch_add — never loses an update
  kStriped,  ///< per-coordinate-stripe spinlock — locked, fine-grained
  kLocked,   ///< one global spinlock — the fully serialised straw man
};

[[nodiscard]] std::string update_policy_name(UpdatePolicy p);
[[nodiscard]] UpdatePolicy update_policy_from_name(const std::string& name);

/// Importance-weight source for IS solvers.
enum class ImportanceKind {
  kLipschitz,     ///< p_i ∝ L_i = β‖x_i‖² + reg (paper Eq. 12, default)
  kGradientBound, ///< p_i ∝ gradient-norm bound (paper Eq. 16 style)
};

struct SolverOptions {
  /// Step size λ (λ0 under a decaying schedule). The paper uses 0.5 (0.05
  /// for URL).
  double step_size = 0.5;
  /// Multiplicative per-epoch decay of λ (1 = constant, paper default).
  /// Composes with step_schedule; see schedule.hpp.
  double step_decay = 1.0;
  /// Epoch-indexed step-size law (constant reproduces the paper).
  ScheduleKind step_schedule = ScheduleKind::kConstant;
  /// e0 offset of the decaying schedules: λ_e = λ0/(1+(e−1)/e0) etc.
  double schedule_offset = 1.0;
  /// Number of passes; each epoch performs n total update iterations
  /// (divided across threads for the async solvers).
  std::size_t epochs = 15;
  /// Worker count for the async solvers (ignored by serial ones).
  std::size_t threads = 4;
  /// Shared-model write discipline for async solvers.
  UpdatePolicy update_policy = UpdatePolicy::kWild;
  /// Regularizer η·r(w) of Eq. 1.
  objectives::Regularization reg = objectives::Regularization::none();
  /// Base seed; workers derive independent streams from it.
  std::uint64_t seed = 7;
  /// Store the final model vector in Trace::final_model (off by default:
  /// sweeps hold many traces and d can be millions).
  bool keep_final_model = false;

  /// Mini-batch size b: each update averages a batch's (importance-
  /// weighted) gradients, all evaluated against one model state. b = 1
  /// reproduces the paper exactly; b > 1 implements the mini-batch IS
  /// extension the paper cites (Csiba & Richtárik 2016) — lower gradient
  /// variance per update at b× the per-update cost. Epoch shapes: in-memory
  /// SGD and ASGD draw ⌈n/b⌉ full batches with replacement (n = rows, or
  /// the worker's shard for ASGD); IS-SGD, IS-ASGD and the shard-major
  /// loops cut their epoch's draws into consecutive batches of b, the last
  /// one shorter. Solver::train rejects b above the data's rows (b = rows
  /// is legal), since every worker sizes its batch scratch by b.
  std::size_t batch_size = 1;

  // ---- IS-specific ----
  /// Importance definition (Eq. 12 vs Eq. 16).
  ImportanceKind importance = ImportanceKind::kLipschitz;
  /// Extension: re-estimate the importance distribution from the *current*
  /// gradient norms ‖∇f_i(w)‖ (the Eq. 11 optimum the paper calls
  /// "completely impractical" to track) every `adaptive_interval` epochs.
  /// Supported by serial IS-SGD and by IS-ASGD (where each worker refreshes
  /// its own shard against a racy model read — thread-local, nothing to
  /// race on). The re-estimation pass is timed inside the training window
  /// so its cost is visible in the traces.
  bool adaptive_importance = false;
  std::size_t adaptive_interval = 1;
  /// Dataset rearrangement before the per-thread split (Algorithm 4).
  partition::PartitionOptions partition;
  /// How IS sample sequences are produced per epoch.
  enum class SequenceMode {
    /// One i.i.d. weighted sequence per epoch, all generated offline
    /// ("beforehand", §1.3) — the faithful Algorithm-2/4 scheme.
    kPregenerate,
    /// §4.2 optimisation: one i.i.d. draw, Fisher–Yates-reshuffled per
    /// epoch. Zero marginal cost, but the fixed multiset never visits ~1/e
    /// of the shard — see EXPERIMENTS.md's coverage caveat.
    kReshuffle,
    /// Extension: systematic-resampling visit counts (best integer
    /// approximation of the IS distribution) with a ≥1-visit coverage
    /// floor, reshuffled per epoch. Reshuffle-grade cost, no coverage hole.
    kStratified,
  };
  SequenceMode sequence_mode = SequenceMode::kPregenerate;

  // ---- simulated-time solvers (sim.* / dist.*) ----
  /// Staleness law injected by the sim.delayed_* solvers: every computed
  /// gradient is held for a drawn number of steps before it lands (mirrors
  /// simulate::DelayModel — the registry wrappers translate). kNone
  /// reproduces serial SGD exactly; the other laws make the paper's τ a
  /// controlled input. Ignored by every non-simulated solver, and by the
  /// dist.* cluster solvers (their staleness *emerges* from the ClusterSpec
  /// cost model instead of being injected).
  enum class DelayLaw {
    kNone,       ///< τ = 0 — degenerates to serial SGD exactly
    kFixed,      ///< constant τ — the perturbed-iterate worst case
    kUniform,    ///< uniform on [0, τ] — spread-out staleness, mean τ/2
    kGeometric,  ///< geometric with mean τ — heavy-tailed straggler law
  };
  DelayLaw delay_law = DelayLaw::kNone;
  /// τ parameter of delay_law, in steps.
  std::size_t delay_tau = 0;

  // ---- SVRG-specific ----
  /// Snapshot/full-gradient refresh interval in epochs (1 = every epoch,
  /// the classic SVRG schedule).
  std::size_t svrg_snapshot_interval = 1;
  /// Reproduce the public-repo approximation the paper criticises (§1.2):
  /// skip the dense μ addition per iteration and apply an aggregate
  /// correction once at epoch end.
  bool svrg_skip_mu = false;
};

}  // namespace isasgd::solvers
