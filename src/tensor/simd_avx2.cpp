// AVX2+FMA instantiation of the SIMD kernel templates (256-bit,
// 4 doubles). Compiled with -mavx2 -mfma (see src/CMakeLists.txt), so
// nothing in this TU may run before dispatch verifies cpu support — the
// only entry point is avx2_tables(), called by simd.cpp after
// __builtin_cpu_supports("avx2")/"fma" both pass.
#include "tensor/simd.hpp"

#if defined(QPINN_SIMD_X86) && defined(__AVX2__) && defined(__FMA__)

namespace qpinn::simd::detail {

const Tables* avx2_tables() {
  static const KernelTable f64 = make_table<VecAvx2>(Isa::kAvx2, "avx2");
  static const KernelTableF f32 =
      make_table<VecAvx2F>(Isa::kAvx2, "avx2");
  static const Tables tables{&f64, &f32};
  return &tables;
}

}  // namespace qpinn::simd::detail

#endif  // QPINN_SIMD_X86 && __AVX2__ && __FMA__
