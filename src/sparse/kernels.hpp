// Dense/sparse BLAS-1 kernels used by the solver inner loops.
//
// Three families:
//   * sparse_* : touch only the nnz coordinates of a row — the
//     index-compressed updates ASGD and IS-ASGD live on.
//   * dense_*  : full-length-d passes — what SVRG's μ term forces and what
//     the paper identifies as the absolute-convergence bottleneck.
//   * fused    : the composite steps the solvers actually execute, collapsed
//     into a single memory pass (sparse_dot_pair, sparse_dot_residual_axpy,
//     scale_then_sparse_axpy). The micro bench (bench/micro_kernels, see
//     docs/PERF.md) measures scalar vs fused/unrolled directly and emits
//     BENCH_kernels.json.
//
// Vectorization contract: the dense kernels use ISASGD_RESTRICT-qualified
// pointers internally and multi-accumulator unrolling, so inputs of a
// two-operand dense kernel MUST NOT alias unless a kernel's contract says
// otherwise. The fused kernels preserve the *per-coordinate* arithmetic
// order of the scalar loops they replace: a solver that swaps its unfused
// two-pass update for the fused kernel reproduces its pre-fusion traces bit
// for bit (each coordinate sees the identical operation sequence; only the
// traversal interleaving changes). See docs/PERF.md for the full contracts.
#pragma once

#include <span>

#include "sparse/sparse_vector.hpp"

/// Tells the optimiser two pointers cannot alias, unlocking vectorization of
/// load-modify-store loops. GCC/Clang spelling; expands to nothing elsewhere.
#if defined(__GNUC__) || defined(__clang__)
#define ISASGD_RESTRICT __restrict__
#else
#define ISASGD_RESTRICT
#endif

namespace isasgd::sparse {

/// Sparse dot: Σ_k w[idx_k] · val_k. O(nnz).
value_t sparse_dot(std::span<const value_t> w, SparseVectorView x) noexcept;

/// Fused dual margin: dot_w = w·x and dot_s = s·x in ONE pass over the
/// indices of x — the SVRG inner loop reads the live model and the snapshot
/// per iteration, and this halves its index/value traffic. Each accumulator
/// sums in the same order as two separate sparse_dot calls (bit-identical).
void sparse_dot_pair(std::span<const value_t> w, std::span<const value_t> s,
                     SparseVectorView x, value_t& dot_w,
                     value_t& dot_s) noexcept;

/// Sparse axpy: w[idx_k] += alpha · val_k for each stored entry. O(nnz).
void sparse_axpy(std::span<value_t> w, value_t alpha, SparseVectorView x) noexcept;

/// Fused SGD/IS-SGD/ASGD update step — the axpy half of the
/// dot → residual → axpy stochastic step (the margin comes from sparse_dot /
/// sparse_dot_pair; the objective's φ′ sits between the two, outside this
/// layer). For every support coordinate c, with one load and one store:
///
///   w[c] −= step · (g·x_c + eta_l1·sign(w[c]) + eta_l2·w[c])
///
/// (eta_l1, eta_l2) encode the regularizer subgradient: (η, 0) for L1,
/// (0, η) for L2, (0, 0) for none; at most one may be nonzero (L1 wins if
/// both are). The call dispatches once to a loop specialised on the kind,
/// each of whose expressions reproduces the unfused
/// `g·x_c + reg.subgradient(w[c])` loop bit for bit.
///
/// The L1 term is computed without a data-dependent branch. A Hogwild
/// model under L1 holds coordinates of both signs and exact zeros, so a
/// sign test per touched coordinate mispredicts often enough to cost more
/// than the rest of the update (docs/PERF.md). It is a bit-mask select
/// whose result equals Regularization::subgradient's bit for bit, for
/// every w[c] and every eta_l1: eta_l1 when w[c] > 0, −eta_l1 (eta_l1 with
/// its sign bit flipped) when w[c] < 0, and +0.0 when w[c] is +0.0, −0.0
/// or NaN.
void sparse_dot_residual_axpy(std::span<value_t> w, SparseVectorView x,
                              value_t step, value_t g, value_t eta_l1,
                              value_t eta_l2) noexcept;

/// Fused SVRG variance-corrected step: the classic decomposition is a
/// sparse correction axpy followed by a dense scale/axpy pass over the full
/// model — two traversals of w per iteration. This kernel performs both in
/// ONE pass (the name keeps the textbook decomposition order):
///
///   w[c] −= corr_step · x_c                                  (c ∈ supp x)
///   w[j] −= step · (mu[j] + eta_l1·sign(w[j]) + eta_l2·w[j]) (all j)
///
/// with the sparse part applied before the dense term at each support
/// coordinate — exactly the per-coordinate order of the unfused
/// correction-then-dense sequence, so results are bit-identical. The dense
/// pass is segmented around the support so the between-support runs stay
/// branch-free and vectorizable. (eta_l1, eta_l2) as in
/// sparse_dot_residual_axpy. Indices of x must be strictly increasing
/// (every producer in this library guarantees it). w and mu must not
/// alias. An empty x degrades to the pure dense variance-reduction step
/// (SAG/SAGA's aggregate pass).
void scale_then_sparse_axpy(std::span<value_t> w, std::span<const value_t> mu,
                            value_t step, value_t eta_l1, value_t eta_l2,
                            value_t corr_step, SparseVectorView x) noexcept;

/// Dense dot product. O(d). Multi-accumulator unrolled; a == b is allowed
/// (read-only operands).
value_t dense_dot(std::span<const value_t> a, std::span<const value_t> b) noexcept;

/// Dense axpy: a += alpha · b. O(d). a and b must not alias.
void dense_axpy(std::span<value_t> a, value_t alpha,
                std::span<const value_t> b) noexcept;

/// Dense scale: a *= alpha. O(d).
void dense_scale(std::span<value_t> a, value_t alpha) noexcept;

/// Euclidean norm of a dense vector.
value_t dense_norm(std::span<const value_t> a) noexcept;

/// Squared Euclidean distance ‖a − b‖². a == b is allowed (read-only
/// operands).
value_t dense_squared_distance(std::span<const value_t> a,
                               std::span<const value_t> b) noexcept;

/// L1 norm of a dense vector.
value_t dense_l1_norm(std::span<const value_t> a) noexcept;

}  // namespace isasgd::sparse
