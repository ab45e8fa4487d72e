// Compute kernels on raw tensors.
//
// These are the only routines that touch tensor memory directly; the
// autodiff layer composes them. Each X_into validates its operands and
// shapes and makes one call into the precision-generic kernel body
// exec::X (tensor/executors.hpp), which owns the chunking over the global
// thread pool and dispatches through the runtime-selected SIMD kernel
// table (tensor/simd.hpp; QPINN_SIMD overrides the choice). The same
// bodies at T = float are the mixed-precision executors
// (tensor/kernels_f32.hpp).
//
// Storage contract: every value-returning kernel returns FRESH storage the
// caller may mutate freely — no path aliases an operand's buffer, including
// the shapes-equal paths of sum_to/broadcast_to. IEEE semantics are
// preserved end to end: no kernel skips operand values (0 * NaN stays NaN),
// so a poisoned activation propagates to the loss instead of vanishing.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace qpinn::kernels {

// ---- elementwise binary (NumPy broadcasting) ----------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- elementwise unary ---------------------------------------------------
Tensor neg(const Tensor& a);
Tensor scale(const Tensor& a, double s);
Tensor add_scalar(const Tensor& a, double s);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor sin(const Tensor& a);
Tensor cos(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor reciprocal(const Tensor& a);
Tensor square(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor softplus(const Tensor& a);
/// x^p for real p (x must be positive unless p is a non-negative integer).
Tensor pow_scalar(const Tensor& a, double p);
/// Heaviside step: 1 where a > 0, else 0 (used for relu's zero-a.e.
/// derivative; treated as locally constant by autodiff).
Tensor step(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor abs(const Tensor& a);
/// -1 / 0 / +1 elementwise.
Tensor sign(const Tensor& a);

// ---- linear algebra ------------------------------------------------------
// The matmul trio shares a register-tiled micro-kernel (4x8 accumulator
// blocks, remainder fringes multiply-then-add) and reaches the thread pool
// only when its multiply-adds pay for a dispatch.
/// (N,K) x (K,M) -> (N,M); rank-2 only.
Tensor matmul(const Tensor& a, const Tensor& b);
/// a^T b without materializing the transpose: (K,N)^T (K,M) -> (N,M).
/// Bit-identical to matmul(transpose(a), b) under every SIMD table.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// a b^T: (N,K) (M,K)^T -> (N,M). Bit-identical to matmul(a, transpose(b))
/// under every SIMD table.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);

// ---- reductions / broadcast management -----------------------------------
/// Sum of all elements as a scalar tensor.
Tensor sum_all(const Tensor& a);
/// Mean of all elements as a scalar tensor.
Tensor mean_all(const Tensor& a);
/// Reverse of broadcasting: sums `a` down to `target` (which must be
/// broadcastable to a.shape()).
Tensor sum_to(const Tensor& a, const Shape& target);
/// Materialized broadcast of `a` to `target`.
Tensor broadcast_to(const Tensor& a, const Shape& target);

// ---- structural ----------------------------------------------------------
/// Horizontal concatenation of rank-2 tensors with equal row counts.
Tensor concat_cols(const std::vector<Tensor>& parts);
/// Columns [c0, c1) of a rank-2 tensor.
Tensor slice_cols(const Tensor& a, std::int64_t c0, std::int64_t c1);
/// Rows [r0, r1) of a rank-2 tensor.
Tensor slice_rows(const Tensor& a, std::int64_t r0, std::int64_t r1);
/// Vertical concatenation of rank-2 tensors with equal column counts.
Tensor concat_rows(const std::vector<Tensor>& parts);

// ---- fused kernels (single-sweep versions of multi-pass sequences) --------
// All of these dispatch through the SIMD layer (tensor/simd.hpp) like the
// plain elementwise kernels and obey the same storage/IEEE contract.
/// tanh(a + bias) in one pass; a rank-2, bias a row vector ({M} or {1,M}).
Tensor bias_tanh(const Tensor& a, const Tensor& bias);
/// sin(a + bias); same contract as bias_tanh.
Tensor bias_sin(const Tensor& a, const Tensor& bias);
/// g * (1 - t^2) in one pass (the tanh backward chain), same shapes
/// required. Performs the identical per-lane IEEE sequence as the
/// mul(g, add_scalar(neg(square(t)), 1.0)) composition — square, negate,
/// add 1.0, multiply, no FMA contraction — so it is bit-identical to the
/// unfused chain (asserted in tests/simd_test.cpp).
Tensor tanh_grad(const Tensor& g, const Tensor& t);
/// sum_i a_i^2 as a scalar tensor, without materializing square(a).
Tensor square_sum_all(const Tensor& a);
/// sum_i w_i * a_i^2 as a scalar tensor; w is same-shape as `a` or a
/// per-row column vector ({N} or {N,1}) against rank-2 `a`.
Tensor weighted_square_sum_all(const Tensor& w, const Tensor& a);

// ---- preallocated-output variants (graph capture & replay) ----------------
// Each X_into(out, ...) writes what X(...) returns into a caller-provided
// tensor whose shape must already match the result (checked). This holds
// by construction: every value-returning X allocates its result shape
// uninitialized and calls X_into. The autodiff execution plan
// (autodiff/plan.hpp) records these and replays them against the buffers
// it binds once after capture, so steady-state replay performs zero
// allocations and is bit-identical to eager execution.
void add_into(Tensor& out, const Tensor& a, const Tensor& b);
void sub_into(Tensor& out, const Tensor& a, const Tensor& b);
void mul_into(Tensor& out, const Tensor& a, const Tensor& b);
void div_into(Tensor& out, const Tensor& a, const Tensor& b);
void neg_into(Tensor& out, const Tensor& a);
void scale_into(Tensor& out, const Tensor& a, double s);
void add_scalar_into(Tensor& out, const Tensor& a, double s);
void exp_into(Tensor& out, const Tensor& a);
void log_into(Tensor& out, const Tensor& a);
void tanh_into(Tensor& out, const Tensor& a);
void sin_into(Tensor& out, const Tensor& a);
void cos_into(Tensor& out, const Tensor& a);
void sqrt_into(Tensor& out, const Tensor& a);
void reciprocal_into(Tensor& out, const Tensor& a);
void square_into(Tensor& out, const Tensor& a);
void sigmoid_into(Tensor& out, const Tensor& a);
void softplus_into(Tensor& out, const Tensor& a);
void pow_scalar_into(Tensor& out, const Tensor& a, double p);
void step_into(Tensor& out, const Tensor& a);
void relu_into(Tensor& out, const Tensor& a);
void abs_into(Tensor& out, const Tensor& a);
void sign_into(Tensor& out, const Tensor& a);
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b);
void transpose_into(Tensor& out, const Tensor& a);
void sum_all_into(Tensor& out, const Tensor& a);
void mean_all_into(Tensor& out, const Tensor& a);
void sum_to_into(Tensor& out, const Tensor& a);
void broadcast_to_into(Tensor& out, const Tensor& a);
void concat_cols_into(Tensor& out, const std::vector<Tensor>& parts);
void concat_rows_into(Tensor& out, const std::vector<Tensor>& parts);
void slice_cols_into(Tensor& out, const Tensor& a, std::int64_t c0,
                     std::int64_t c1);
void slice_rows_into(Tensor& out, const Tensor& a, std::int64_t r0,
                     std::int64_t r1);
void bias_tanh_into(Tensor& out, const Tensor& a, const Tensor& bias);
void bias_sin_into(Tensor& out, const Tensor& a, const Tensor& bias);
void tanh_grad_into(Tensor& out, const Tensor& g, const Tensor& t);
void square_sum_all_into(Tensor& out, const Tensor& a);
void weighted_square_sum_all_into(Tensor& out, const Tensor& w,
                                  const Tensor& a);
/// Zero-fills `out` (plan thunk for constant-zero gradient buffers).
void fill_zero(Tensor& out);

// ---- in-place helpers (used by optimizers; bypass autodiff) ---------------
/// dst += s * src (same shape required).
void axpy_inplace(Tensor& dst, double s, const Tensor& src);
/// dst *= s.
void scale_inplace(Tensor& dst, double s);
/// dst = a*dst + b*src in one sweep (same shape required); bit-identical
/// to scale_inplace(dst, a) followed by axpy_inplace(dst, b, src).
void axpby_inplace(Tensor& dst, double a, double b, const Tensor& src);
/// Copies src into dst (same shape required).
void copy_into(Tensor& dst, const Tensor& src);

/// Per-step constants of the fused Adam update; bias corrections are
/// precomputed by the caller (bias_corr1 = 1 - beta1^t, etc.).
struct AdamStepConfig {
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double eps = 0.0;
  double weight_decay = 0.0;
  double bias_corr1 = 1.0;
  double bias_corr2 = 1.0;
  bool decoupled = false;  ///< AdamW-style decoupled weight decay
};
/// One fused sweep of the Adam update: weight decay, both moment updates,
/// bias correction, and the parameter write in a single pass per buffer
/// (replaces ~6 kernel calls per parameter). Bit-identical across SIMD
/// dispatch variants, so checkpoints resume exactly under any of them.
void adam_step_inplace(Tensor& param, const Tensor& grad, Tensor& m,
                       Tensor& v, const AdamStepConfig& cfg);

/// Euclidean dot product of two same-shape tensors (returns a double).
double dot(const Tensor& a, const Tensor& b);
/// Euclidean norm.
double norm2(const Tensor& a);

}  // namespace qpinn::kernels
