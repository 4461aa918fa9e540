#include "objectives/objective.hpp"

#include <cmath>
#include <stdexcept>

#include "objectives/huber.hpp"
#include "objectives/least_squares.hpp"
#include "objectives/logistic.hpp"
#include "objectives/smooth_hinge.hpp"
#include "objectives/squared_hinge.hpp"

namespace isasgd::objectives {

double Regularization::value(std::span<const value_t> w) const {
  switch (kind) {
    case Kind::kNone:
      return 0.0;
    case Kind::kL1: {
      double acc = 0;
      for (value_t v : w) acc += std::abs(v);
      return eta * acc;
    }
    case Kind::kL2: {
      double acc = 0;
      for (value_t v : w) acc += v * v;
      return 0.5 * eta * acc;
    }
  }
  return 0.0;
}

double Regularization::subgradient(value_t wj) const {
  switch (kind) {
    case Kind::kNone:
      return 0.0;
    case Kind::kL1:
      return wj > 0 ? eta : (wj < 0 ? -eta : 0.0);
    case Kind::kL2:
      return eta * wj;
  }
  return 0.0;
}

std::string Regularization::name() const {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kL1: return "l1";
    case Kind::kL2: return "l2";
  }
  return "?";
}

void Regularization::validate(std::string_view who) const {
  if (!(std::isfinite(eta) && eta >= 0)) {
    throw std::invalid_argument(std::string(who) +
                                ": reg.eta must be finite and non-negative "
                                "(got " + std::to_string(eta) + ")");
  }
}

double Objective::gradient_norm_bound(sparse::SparseVectorView x, value_t y,
                                      double radius,
                                      const Regularization& reg) const {
  // Generic bound: ‖∇φ_i(w)‖ = |φ'(m)|·‖x‖ ≤ (|φ'(0)| + β·|m|)·‖x‖ with
  // |m| ≤ radius·‖x‖, plus the regularizer's contribution.
  (void)y;
  const double xn = x.norm();
  const double phi_zero = std::abs(gradient_scale(0.0, y));
  double bound = (phi_zero + smoothness() * radius * xn) * xn;
  if (reg.kind == Regularization::Kind::kL2) {
    bound += reg.eta * radius;
  } else if (reg.kind == Regularization::Kind::kL1) {
    bound += reg.eta;  // per-coordinate subgradient bound, conservative
  }
  return bound;
}

std::vector<double> per_sample_lipschitz(const sparse::CsrMatrix& data,
                                         const Objective& objective,
                                         const Regularization& reg) {
  std::vector<double> lipschitz(data.rows());
  const double beta = objective.smoothness();
  const double reg_term = reg.lipschitz_term();
  for (std::size_t i = 0; i < data.rows(); ++i) {
    lipschitz[i] = beta * data.row(i).squared_norm() + reg_term;
  }
  return lipschitz;
}

std::unique_ptr<Objective> make_objective(const std::string& name) {
  if (name == "logistic") return std::make_unique<LogisticLoss>();
  if (name == "squared_hinge") return std::make_unique<SquaredHingeLoss>();
  if (name == "least_squares") return std::make_unique<LeastSquaresLoss>();
  if (name == "smooth_hinge") return std::make_unique<SmoothHingeLoss>();
  if (name == "huber") return std::make_unique<HuberLoss>();
  throw std::invalid_argument(
      "make_objective: unknown objective '" + name +
      "' (expected logistic|squared_hinge|least_squares|smooth_hinge|huber)");
}

}  // namespace isasgd::objectives
