#include "sparse/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "distributed/fenced.hpp"
#include "objectives/objective.hpp"
#include "sparse/dispatch.hpp"
#include "sparse/sparse_vector.hpp"
#include "util/rng.hpp"

namespace isasgd::sparse {
namespace {

std::vector<value_t> random_vector(std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<value_t> v(d);
  for (auto& x : v) x = util::normal_double(rng);
  return v;
}

SparseVector random_row(std::size_t d, std::size_t nnz, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<index_t> idx;
  while (idx.size() < nnz) {
    const auto j = static_cast<index_t>(util::uniform_index(rng, d));
    bool dup = false;
    for (index_t existing : idx) dup |= existing == j;
    if (!dup) idx.push_back(j);
  }
  std::sort(idx.begin(), idx.end());
  std::vector<value_t> val(nnz);
  for (auto& v : val) v = util::normal_double(rng);
  return SparseVector(std::move(idx), std::move(val));
}

// ---------------------------------------------------------------------------
// L1-kink fixtures. The regularizer subgradient has a kink at w = 0, and a
// Hogwild model under L1 holds both signs and exact zeros, so the fused
// kernels are pinned against Regularization::subgradient on the values a
// random normal draw never produces. Comparisons are on bit patterns:
// EXPECT_EQ on doubles calls −0.0 equal to +0.0 and NaN unequal to itself.
// ---------------------------------------------------------------------------

constexpr value_t kInf = std::numeric_limits<value_t>::infinity();
constexpr value_t kTiny = std::numeric_limits<value_t>::denorm_min();
constexpr value_t kNaN = std::numeric_limits<value_t>::quiet_NaN();

/// Model values on and around the kink.
constexpr value_t kKinkValues[] = {0.0,   -0.0,   kNaN, kInf, -kInf,
                                   kTiny, -kTiny, 1.0,  -1.0};
constexpr std::size_t kKinkCount = std::size(kKinkValues);

/// kink_model repeats the kink values and two normals with this period. It
/// is odd, so every value lands on even and on odd coordinates.
constexpr std::size_t kKinkPeriod = kKinkCount + 2;

/// kink_row's support is every even coordinate of the first two periods,
/// then the one coordinate that closes a kRunLength-long run outside the
/// support; a kRunLength-long tail follows it. A run that long holds every
/// kink value several times over, so each one meets whole 4- and 8-lane
/// vector iterations of the dense pass, whatever the loop peels.
constexpr std::size_t kRunLength = 40;
constexpr std::size_t kRunBegin = 2 * kKinkPeriod;
constexpr std::size_t kRunClose = kRunBegin + kRunLength;
constexpr std::size_t kKinkDim = kRunClose + 1 + kRunLength;

/// Gradient scales. With g = −0.0 the residual g·x_c is a signed zero, so a
/// kink returning −0.0 lands differently from the reference's +0.0.
constexpr double kKinkGradients[] = {-1.25, 0.0, -0.0};

std::uint64_t bits(value_t v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<value_t> kink_model(std::uint64_t seed) {
  auto w = random_vector(kKinkDim, seed);
  for (std::size_t j = 0; j < kKinkDim; ++j) {
    if (j % kKinkPeriod < kKinkCount) w[j] = kKinkValues[j % kKinkPeriod];
  }
  return w;
}

/// A row with the support laid out at kRunLength and values of
/// alternating sign.
SparseVector kink_row() {
  const auto r = random_vector(kKinkDim, 3);
  std::vector<index_t> idx;
  for (std::size_t j = 0; j < kRunBegin; j += 2) {
    idx.push_back(static_cast<index_t>(j));
  }
  idx.push_back(static_cast<index_t>(kRunClose));
  std::vector<value_t> val;
  for (const index_t j : idx) {
    val.push_back((val.size() % 2 ? -1.0 : 1.0) * (0.5 + std::abs(r[j])));
  }
  return SparseVector(std::move(idx), std::move(val));
}

/// A model and the row that steps it.
struct StepCase {
  std::string name;
  std::vector<value_t> w;
  SparseVector x;
};

/// The kink layout, plus a normal model under a random d-dimensional row,
/// whose support leaves runs of random length between its coordinates.
std::vector<StepCase> step_cases(std::size_t d, std::size_t nnz,
                                 std::uint64_t row_seed,
                                 std::uint64_t model_seed) {
  std::vector<StepCase> cases;
  cases.push_back({"kink", kink_model(model_seed), kink_row()});
  cases.push_back({"random", random_vector(d, model_seed),
                   random_row(d, nnz, row_seed)});
  return cases;
}

std::vector<objectives::Regularization> kink_regularizers() {
  using objectives::Regularization;
  return {Regularization::none(), Regularization::l1(0.3),
          Regularization::l1(-0.3), Regularization::l2(0.3),
          Regularization::l2(-0.3)};
}

std::string describe(const objectives::Regularization& reg) {
  return reg.name() + "(" + std::to_string(reg.eta) + ")";
}

/// The frozen pre-fusion loop, one out-of-line subgradient per coordinate.
void subgradient_loop(std::vector<value_t>& w, const SparseVector& x,
                      double step, double g,
                      const objectives::Regularization& reg) {
  const auto idx = x.view().indices();
  const auto val = x.view().values();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t c = idx[k];
    w[c] -= step * (g * val[k] + reg.subgradient(w[c]));
  }
}

void expect_same_bits(const std::vector<value_t>& got,
                      const std::vector<value_t>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(bits(got[j]), bits(want[j]))
        << what << ", coordinate " << j << ": " << got[j] << " vs "
        << want[j];
  }
}

TEST(SparseKernels, SparseDotMatchesDense) {
  std::vector<value_t> w = {1, 2, 3, 4, 5};
  SparseVector x({0, 3}, {10.0, -1.0});
  EXPECT_DOUBLE_EQ(sparse_dot(w, x.view()), 1 * 10.0 + 4 * -1.0);
}

TEST(SparseKernels, SparseDotEmptyIsZero) {
  std::vector<value_t> w = {1, 2};
  SparseVector x;
  EXPECT_DOUBLE_EQ(sparse_dot(w, x.view()), 0.0);
}

TEST(SparseKernels, SparseAxpyTouchesOnlySupport) {
  std::vector<value_t> w = {1, 1, 1, 1};
  SparseVector x({1, 3}, {2.0, -4.0});
  sparse_axpy(w, 0.5, x.view());
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 2.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_DOUBLE_EQ(w[3], -1.0);
}

TEST(DenseKernels, DotAndNorm) {
  std::vector<value_t> a = {3, 4};
  std::vector<value_t> b = {1, 2};
  EXPECT_DOUBLE_EQ(dense_dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(dense_norm(a), 5.0);
}

TEST(DenseKernels, AxpyAccumulates) {
  std::vector<value_t> a = {1, 1};
  std::vector<value_t> b = {2, -2};
  dense_axpy(a, 3.0, b);
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(a[1], -5.0);
}

TEST(DenseKernels, Scale) {
  std::vector<value_t> a = {2, -4};
  dense_scale(a, -0.5);
  EXPECT_DOUBLE_EQ(a[0], -1.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

TEST(DenseKernels, SquaredDistance) {
  std::vector<value_t> a = {0, 3};
  std::vector<value_t> b = {4, 0};
  EXPECT_DOUBLE_EQ(dense_squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(dense_squared_distance(a, a), 0.0);
}

TEST(DenseKernels, L1Norm) {
  std::vector<value_t> a = {1.5, -2.5, 0};
  EXPECT_DOUBLE_EQ(dense_l1_norm(a), 4.0);
}

TEST(SparseKernels, AxpyThenDotIsConsistent) {
  // w += α·x, then w·x should change by α·‖x‖².
  std::vector<value_t> w(10, 0.5);
  SparseVector x({2, 4, 8}, {1.0, -2.0, 3.0});
  const double before = sparse_dot(w, x.view());
  sparse_axpy(w, 0.25, x.view());
  const double after = sparse_dot(w, x.view());
  EXPECT_NEAR(after - before, 0.25 * x.squared_norm(), 1e-12);
}

// ---------------------------------------------------------------------------
// Fused kernels: each must reproduce its unfused scalar decomposition
// bit for bit — that contract is what lets the solvers adopt them without
// perturbing the paper traces.
// ---------------------------------------------------------------------------

TEST(FusedKernels, DotPairMatchesTwoDotsBitwise) {
  const std::size_t d = 257;
  const auto w = random_vector(d, 1);
  const auto s = random_vector(d, 2);
  const auto x = random_row(d, 19, 3);
  value_t dot_w = 0, dot_s = 0;
  sparse_dot_pair(w, s, x.view(), dot_w, dot_s);
  EXPECT_EQ(dot_w, sparse_dot(w, x.view()));
  EXPECT_EQ(dot_s, sparse_dot(s, x.view()));
}

TEST(FusedKernels, ResidualAxpyMatchesSubgradientLoopBitwise) {
  // Each backend's kernel, and fenced::apply_push (the parameter server's
  // apply) with that backend active, must land a step exactly as the frozen
  // per-coordinate subgradient loop does, and leave every coordinate
  // outside the support as it was.
  struct RestoreBackend {
    kernels::Backend ambient = kernels::active_backend();
    ~RestoreBackend() { kernels::set_backend(ambient); }
  } restore;
  const double step = 0.37;
  for (const kernels::Backend be : kernels::available_backends()) {
    ASSERT_TRUE(kernels::set_backend(be));
    const kernels::KernelTable& t = *kernels::table_for(be);
    for (const StepCase& c : step_cases(101, 17, 5, 7)) {
      for (const auto& reg : kink_regularizers()) {
        for (const double g : kKinkGradients) {
          SCOPED_TRACE(kernels::backend_name(be) + " " + c.name + " " +
                       describe(reg) + " g=" + std::to_string(g));
          auto w_ref = c.w;
          subgradient_loop(w_ref, c.x, step, g, reg);
          auto w_fused = c.w;
          t.sparse_dot_residual_axpy(w_fused, c.x.view(), step, g,
                                     reg.eta_l1(), reg.eta_l2());
          expect_same_bits(w_fused, w_ref, "kernel");
          auto w_push = c.w;
          distributed::fenced::apply_push(c.x.view().indices(),
                                          c.x.view().values(), g, step, reg,
                                          w_push);
          expect_same_bits(w_push, w_ref, "apply_push");
        }
      }
    }
  }
}

TEST(FusedKernels, ScaleThenSparseAxpyMatchesTwoPassBitwise) {
  // The kink layout puts every kink value in the support, in the 1-long
  // runs between support coordinates, in a long run and in the tail; the
  // random case adds runs of random length.
  const double step = 0.11;
  for (const kernels::Backend be : kernels::available_backends()) {
    const kernels::KernelTable& t = *kernels::table_for(be);
    for (const StepCase& c : step_cases(149, 23, 9, 12)) {
      const std::size_t d = c.w.size();
      const auto r = random_vector(d, 10);
      for (const auto& reg : kink_regularizers()) {
        for (const double g : kKinkGradients) {
          SCOPED_TRACE(kernels::backend_name(be) + " " + c.name + " " +
                       describe(reg) + " g=" + std::to_string(g));
          // μ takes g's sign on even coordinates and the opposite on odd
          // ones, so a μ of either signed zero meets every kink value. The
          // correction step takes g's sign.
          std::vector<value_t> mu(d);
          for (std::size_t j = 0; j < d; ++j) {
            mu[j] = (j % 2 ? -g : g) * std::abs(r[j]);
          }
          const double corr_step = 0.4 * g;
          auto w_fused = c.w;
          auto w_ref = c.w;
          t.scale_then_sparse_axpy(w_fused, mu, step, reg.eta_l1(),
                                   reg.eta_l2(), corr_step, c.x.view());
          // The frozen pre-fusion two-pass sequence: sparse correction,
          // then the dense variance-reduction pass.
          const auto idx = c.x.view().indices();
          const auto val = c.x.view().values();
          for (std::size_t k = 0; k < idx.size(); ++k) {
            w_ref[idx[k]] -= corr_step * val[k];
          }
          for (std::size_t j = 0; j < d; ++j) {
            w_ref[j] -= step * (mu[j] + reg.subgradient(w_ref[j]));
          }
          expect_same_bits(w_fused, w_ref, "kernel");
        }
      }
    }
  }
}

TEST(FusedKernels, ScaleThenSparseAxpyEmptySupportIsDenseStep) {
  const std::size_t d = 33;
  const auto mu = random_vector(d, 14);
  auto w_fused = random_vector(d, 15);
  auto w_ref = w_fused;
  scale_then_sparse_axpy(w_fused, mu, 0.25, 0.0, 0.1, 99.0, {});
  for (std::size_t j = 0; j < d; ++j) {
    w_ref[j] -= 0.25 * (mu[j] + 0.1 * w_ref[j]);
  }
  for (std::size_t j = 0; j < d; ++j) EXPECT_EQ(w_fused[j], w_ref[j]);
}

TEST(FusedKernels, SupportAtVectorEdges) {
  // First and last coordinate in the support exercises the run-segmentation
  // boundaries of the fused dense pass.
  const std::size_t d = 16;
  SparseVector x({0, 15}, {2.0, -3.0});
  const std::vector<value_t> mu(d, 1.0);
  std::vector<value_t> w(d, 10.0);
  scale_then_sparse_axpy(w, mu, 0.5, 0.0, 0.0, 1.0, x.view());
  // supp: w0 = 10-2 = 8 then dense −0.5; w15 = 10+3 = 13 then dense −0.5.
  EXPECT_DOUBLE_EQ(w[0], 7.5);
  EXPECT_DOUBLE_EQ(w[15], 12.5);
  for (std::size_t j = 1; j < 15; ++j) EXPECT_DOUBLE_EQ(w[j], 9.5);
}

TEST(DenseKernels, UnrolledDotMatchesSequentialWithinTolerance) {
  // The 4-accumulator reduction reassociates the sum — equality is only
  // approximate by design (documented in docs/PERF.md).
  const std::size_t d = 1003;  // non-multiple of 4: remainder path covered
  const auto a = random_vector(d, 20);
  const auto b = random_vector(d, 21);
  double seq = 0;
  for (std::size_t j = 0; j < d; ++j) seq += a[j] * b[j];
  EXPECT_NEAR(dense_dot(a, b), seq, 1e-9 * d);
}

}  // namespace
}  // namespace isasgd::sparse
