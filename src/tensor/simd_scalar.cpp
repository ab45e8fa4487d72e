// Scalar instantiation of the SIMD kernel templates (VecScalar has
// width 1, so every loop body is exactly the fringe expression). This is
// the portable fallback and the reference the equivalence tests compare
// the vector variants against. Compiled with -ffp-contract=off like the
// other variant TUs so no target sneaks an FMA into the arithmetic
// kernels.
#include "tensor/simd.hpp"

namespace qpinn::simd::detail {

const Tables* scalar_tables() {
  static const KernelTable f64 = make_table<VecScalar>(Isa::kScalar, "scalar");
  static const KernelTableF f32 =
      make_table<VecScalarF>(Isa::kScalar, "scalar");
  static const Tables tables{&f64, &f32};
  return &tables;
}

}  // namespace qpinn::simd::detail
