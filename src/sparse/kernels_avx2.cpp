// AVX2 kernel backend: the same kernel bodies as the scalar TU, compiled
// with -mavx2 (and -ffp-contract=off, so no FMA contraction may change the
// rounding) — the compiler is free to use 256-bit registers, the arithmetic
// stays bit-identical to scalar. CMake defines ISASGD_TU_AVX2 for this file
// only when the target is x86-64 and the compiler accepts -mavx2; otherwise
// the backend reports "not compiled" and dispatch never offers it.
#include "sparse/dispatch.hpp"

#if defined(ISASGD_TU_AVX2)

#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sparse/kernels.hpp"

namespace isasgd::sparse {
namespace backend_avx2 {
#include "sparse/kernels_body.inc"
}  // namespace backend_avx2
}  // namespace isasgd::sparse

namespace isasgd::sparse::kernels {

const KernelTable* avx2_table() noexcept {
  static const KernelTable table = {
      Backend::kAvx2,
      &backend_avx2::sparse_dot,
      &backend_avx2::sparse_dot_pair,
      &backend_avx2::sparse_axpy,
      &backend_avx2::sparse_dot_residual_axpy,
      &backend_avx2::scale_then_sparse_axpy,
      &backend_avx2::dense_dot,
      &backend_avx2::dense_axpy,
      &backend_avx2::dense_scale,
      &backend_avx2::dense_norm,
      &backend_avx2::dense_squared_distance,
      &backend_avx2::dense_l1_norm,
  };
  return &table;
}

}  // namespace isasgd::sparse::kernels

#else  // !ISASGD_TU_AVX2

namespace isasgd::sparse::kernels {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace isasgd::sparse::kernels

#endif
