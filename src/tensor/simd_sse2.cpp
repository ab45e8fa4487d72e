// SSE2 instantiation of the SIMD kernel templates (128-bit, 2 doubles).
// SSE2 is part of the x86-64 baseline, so this TU needs no extra target
// flags beyond -ffp-contract=off; it is only added to the build on x86.
#include "tensor/simd.hpp"

#if defined(QPINN_SIMD_X86) && defined(__SSE2__)

namespace qpinn::simd::detail {

const Tables* sse2_tables() {
  static const KernelTable f64 = make_table<VecSse2>(Isa::kSse2, "sse2");
  static const KernelTableF f32 =
      make_table<VecSse2F>(Isa::kSse2, "sse2");
  static const Tables tables{&f64, &f32};
  return &tables;
}

}  // namespace qpinn::simd::detail

#endif  // QPINN_SIMD_X86 && __SSE2__
