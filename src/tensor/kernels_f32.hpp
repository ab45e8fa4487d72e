// fp32 executors for mixed-precision plan replay.
//
// The executors are the precision-generic kernel bodies of
// tensor/executors.hpp, named here for T = float: kernels_f32::X is
// exec::X, the same template the fp64 Tensor kernel X_into runs, so fp32
// replay follows the fp64 chunking and fast-path policy by construction.
// They take raw buffers (float* / const float*, explicit extents) because
// the fp32 shadow buffers of a demoted plan (src/autodiff/precision.cpp)
// are plain pooled std::vector<float> storage with no Tensor wrapper;
// shapes were validated when the fp64 plan was captured, so nothing here
// checks them. Reductions accumulate in and return double, preserving the
// fp64 loss accumulation of mixed mode.
//
// downcast/upcast are the only precision-specific code: together with the
// SIMD layer, src/tensor/ is the only place allowed to convert between
// double and float (enforced by tools/qpinn_lint.py banned-naked-float-cast),
// and these two are the sole precision boundary of a demoted plan.
#pragma once

#include <cstddef>

#include "tensor/executors.hpp"

namespace qpinn::kernels_f32 {

// ---- precision boundary --------------------------------------------------

/// dst[i] = (float)src[i]. Runs on every replay of a demoted plan for
/// fp64-resident inputs (parameters included), which is what makes Adam's
/// fp64 master-weight updates visible to the fp32 sweeps.
inline void downcast(float* dst, const double* src, std::size_t n) {
  exec::convert(dst, src, n);
}
/// dst[i] = (double)src[i] — exact (every float is a double).
inline void upcast(double* dst, const float* src, std::size_t n) {
  exec::convert(dst, src, n);
}

// ---- executors (see tensor/executors.hpp for each contract) --------------

using exec::bin_row, exec::bin_same, exec::bin_scalar_lhs,
    exec::bin_scalar_rhs;
using exec::abs, exec::cos, exec::exp, exec::log, exec::neg,
    exec::reciprocal, exec::sign, exec::sin, exec::sqrt, exec::square,
    exec::tanh;
using exec::add_scalar, exec::pow_scalar, exec::scale;
using exec::bias_tanh, exec::tanh_grad;
using exec::axpy, exec::copy, exec::fill_value, exec::fill_zero,
    exec::sum_to_rows, exec::transpose;
using exec::matmul, exec::matmul_nt, exec::matmul_tn;
using exec::square_sum, exec::sum, exec::weighted_square_sum,
    exec::weighted_square_sum_rows;

}  // namespace qpinn::kernels_f32
