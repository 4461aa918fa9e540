// AVX-512 kernel backend: the same kernel bodies as the scalar TU, compiled
// with -mavx512f -mavx512dq -mavx512vl -mavx512bw (and -ffp-contract=off,
// so no FMA contraction may change the rounding) — 512-bit registers,
// bit-identical arithmetic. CMake defines ISASGD_TU_AVX512 for this file
// only when the target is x86-64 and the compiler accepts the flags;
// otherwise the backend reports "not compiled" and dispatch never offers
// it.
#include "sparse/dispatch.hpp"

#if defined(ISASGD_TU_AVX512)

#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sparse/kernels.hpp"

namespace isasgd::sparse {
namespace backend_avx512 {
#include "sparse/kernels_body.inc"
}  // namespace backend_avx512
}  // namespace isasgd::sparse

namespace isasgd::sparse::kernels {

const KernelTable* avx512_table() noexcept {
  static const KernelTable table = {
      Backend::kAvx512,
      &backend_avx512::sparse_dot,
      &backend_avx512::sparse_dot_pair,
      &backend_avx512::sparse_axpy,
      &backend_avx512::sparse_dot_residual_axpy,
      &backend_avx512::scale_then_sparse_axpy,
      &backend_avx512::dense_dot,
      &backend_avx512::dense_axpy,
      &backend_avx512::dense_scale,
      &backend_avx512::dense_norm,
      &backend_avx512::dense_squared_distance,
      &backend_avx512::dense_l1_norm,
  };
  return &table;
}

}  // namespace isasgd::sparse::kernels

#else  // !ISASGD_TU_AVX512

namespace isasgd::sparse::kernels {
const KernelTable* avx512_table() noexcept { return nullptr; }
}  // namespace isasgd::sparse::kernels

#endif
