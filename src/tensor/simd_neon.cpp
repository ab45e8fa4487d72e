// NEON instantiation of the SIMD kernel templates (128-bit, 2 doubles).
// Advanced SIMD is architecturally mandatory on AArch64, so no runtime
// probe is needed; this TU is only added to the build on aarch64.
#include "tensor/simd.hpp"

#if defined(QPINN_SIMD_NEON)

namespace qpinn::simd::detail {

const Tables* neon_tables() {
  static const KernelTable f64 = make_table<VecNeon>(Isa::kNeon, "neon");
  static const KernelTableF f32 =
      make_table<VecNeonF>(Isa::kNeon, "neon");
  static const Tables tables{&f64, &f32};
  return &tables;
}

}  // namespace qpinn::simd::detail

#endif  // QPINN_SIMD_NEON
