// Objective functions for the ERM problem the paper studies (Eq. 1–2):
//
//   min_w F(w) = (1/n) Σ_i f_i(w),   f_i(w) = φ_i(w) + η r(w)
//
// Every objective in the paper's evaluation is a generalized linear model:
// φ_i(w) = φ(w·x_i, y_i). That structure is what makes stochastic gradients
// index-compressed — ∇φ_i(w) = φ'(margin)·x_i shares x_i's sparsity — and the
// whole library leans on it: an Objective exposes the scalar margin→loss and
// margin→gradient-scale maps, and the solvers do the sparse axpy themselves.
//
// Per-sample Lipschitz constants L_i (smoothness of ∇f_i, paper Eq. 6) feed
// the importance distribution p_i = L_i / Σ L_j (Eq. 12).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sparse/csr_matrix.hpp"
#include "sparse/sparse_vector.hpp"

namespace isasgd::objectives {

using sparse::value_t;

/// The regularizer η·r(w) of Eq. 1. The paper's evaluation objective is
/// L1-regularized cross-entropy; the Eq. 16 example is L2-regularized
/// squared hinge. `kNone` supports the pure-loss ablations.
struct Regularization {
  enum class Kind { kNone, kL1, kL2 };

  Kind kind = Kind::kNone;
  double eta = 0.0;

  static Regularization none() { return {Kind::kNone, 0.0}; }
  static Regularization l1(double eta) { return {Kind::kL1, eta}; }
  static Regularization l2(double eta) { return {Kind::kL2, eta}; }

  /// η·r(w) for the full model vector.
  [[nodiscard]] double value(std::span<const value_t> w) const;

  /// Sub-gradient of η·r at coordinate value wj (0 at the L1 kink).
  [[nodiscard]] double subgradient(value_t wj) const;

  /// Subgradient split into the (eta_l1, eta_l2) coefficient pair the fused
  /// sparse kernels take: subgradient(w) ≡ eta_l1()·sign(w) + eta_l2()·w
  /// for every Kind (see sparse/kernels.hpp).
  [[nodiscard]] double eta_l1() const noexcept {
    return kind == Kind::kL1 ? eta : 0.0;
  }
  [[nodiscard]] double eta_l2() const noexcept {
    return kind == Kind::kL2 ? eta : 0.0;
  }

  /// Additive contribution of the regularizer to every per-sample Lipschitz
  /// constant: η for L2 (strongly convex part), 0 for L1/none (L1 is
  /// nonsmooth; its subgradient is bounded, not Lipschitz, and the paper's
  /// p_i construction uses the smooth part's constant).
  [[nodiscard]] double lipschitz_term() const {
    return kind == Kind::kL2 ? eta : 0.0;
  }

  [[nodiscard]] std::string name() const;

  /// Throws std::invalid_argument "<who>: reg.eta must be finite and
  /// non-negative" unless it is. NaN and ±inf are as nonsensical as a
  /// negative strength (ClusterSpec::validate's convention). Every solver
  /// calls it before it trains (Solver::validate).
  void validate(std::string_view who) const;
};

/// Scalar GLM loss interface: everything is a function of the margin
/// m = w·x and the label y.
class Objective {
 public:
  virtual ~Objective() = default;

  /// φ(margin, y) — per-sample loss, regularizer excluded.
  [[nodiscard]] virtual double loss(double margin, value_t y) const = 0;

  /// dφ/d(margin). The sparse gradient of φ_i is this scalar times x_i.
  [[nodiscard]] virtual double gradient_scale(double margin, value_t y) const = 0;

  /// β = sup_m |φ''(m, y)|: smoothness of the scalar loss. The per-sample
  /// Lipschitz constant is then L_i = β·‖x_i‖² + reg.lipschitz_term().
  [[nodiscard]] virtual double smoothness() const = 0;

  /// True for classification losses (enables error-rate metrics).
  [[nodiscard]] virtual bool is_classification() const = 0;

  /// Predicted label (±1) from the margin; only meaningful when
  /// is_classification().
  [[nodiscard]] virtual double predict(double margin) const {
    return margin >= 0 ? 1.0 : -1.0;
  }

  /// A bound on ‖∇f_i(w)‖ for ‖w‖ ≤ radius (used by the Eq. 16-style
  /// gradient-norm importance variant and the theory module's M constant).
  /// Default: smoothness-based bound β·‖x‖·(radius·‖x‖ + margin_scale(y)).
  [[nodiscard]] virtual double gradient_norm_bound(
      sparse::SparseVectorView x, value_t y, double radius,
      const Regularization& reg) const;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Per-sample Lipschitz constants L_i = β‖x_i‖² + reg term, for the whole
/// dataset (paper Eq. 6 / §2.2). O(nnz).
std::vector<double> per_sample_lipschitz(const sparse::CsrMatrix& data,
                                         const Objective& objective,
                                         const Regularization& reg);

/// Factory by name ("logistic", "squared_hinge", "least_squares") — used by
/// the CLI-driven bench binaries. Throws std::invalid_argument on unknown.
std::unique_ptr<Objective> make_objective(const std::string& name);

}  // namespace isasgd::objectives
