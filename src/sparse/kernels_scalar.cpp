// Scalar kernel backend: the portable baseline tune every binary carries.
//
// Compiled with the project's default architecture flags — plus
// -march=native when the library is configured with -DISASGD_NATIVE=ON,
// which turns this TU into the "native" tune the dispatcher pins to (see
// dispatch.hpp). Always compiled with -ffp-contract=off: the scalar table
// is the bit-identity reference every other backend is checked against.
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sparse/dispatch.hpp"
#include "sparse/kernels.hpp"

namespace isasgd::sparse {
namespace backend_scalar {
#include "sparse/kernels_body.inc"
}  // namespace backend_scalar
}  // namespace isasgd::sparse

namespace isasgd::sparse::kernels {

const KernelTable* scalar_table() noexcept {
  static const KernelTable table = {
      Backend::kScalar,
      &backend_scalar::sparse_dot,
      &backend_scalar::sparse_dot_pair,
      &backend_scalar::sparse_axpy,
      &backend_scalar::sparse_dot_residual_axpy,
      &backend_scalar::scale_then_sparse_axpy,
      &backend_scalar::dense_dot,
      &backend_scalar::dense_axpy,
      &backend_scalar::dense_scale,
      &backend_scalar::dense_norm,
      &backend_scalar::dense_squared_distance,
      &backend_scalar::dense_l1_norm,
  };
  return &table;
}

}  // namespace isasgd::sparse::kernels
