#include "tensor/kernels_f32.hpp"

#include "parallel/parallel_for.hpp"

namespace qpinn::kernels_f32 {

void downcast(float* dst, const double* src, std::size_t n) {
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          dst[i] = static_cast<float>(src[i]);
        }
      },
      exec::kStreamDispatch);
}

void upcast(double* dst, const float* src, std::size_t n) {
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          dst[i] = static_cast<double>(src[i]);
        }
      },
      exec::kStreamDispatch);
}

}  // namespace qpinn::kernels_f32
