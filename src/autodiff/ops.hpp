// Differentiable operations on Variables.
//
// Every backward rule is written in terms of these same operations, which
// is what makes second (and higher) derivatives work: grad(create_graph)
// returns Variables whose own graphs can be differentiated again.
#pragma once

#include <vector>

#include "autodiff/variable.hpp"

namespace qpinn::autodiff {

// ---- grad mode -----------------------------------------------------------
/// While a NoGradGuard is alive on this thread, make_op produces constants
/// (no parents, no backward) — used internally by grad() when
/// create_graph=false and available to user code for cheap evaluation.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when gradients are currently being recorded on this thread.
bool grad_mode_enabled();

// ---- elementwise binary (broadcasting) ------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable div(const Variable& a, const Variable& b);

// ---- elementwise unary -----------------------------------------------------
Variable neg(const Variable& a);
Variable scale(const Variable& a, double s);
Variable add_scalar(const Variable& a, double s);
Variable exp(const Variable& a);
Variable log(const Variable& a);
Variable tanh(const Variable& a);
Variable sin(const Variable& a);
Variable cos(const Variable& a);
Variable sqrt(const Variable& a);
Variable reciprocal(const Variable& a);
Variable square(const Variable& a);
Variable pow_scalar(const Variable& a, double p);
/// abs has a measure-zero kink; its backward treats the sign factor as
/// locally constant (zero second derivative a.e.).
Variable abs(const Variable& a);

// ---- linear algebra --------------------------------------------------------
Variable matmul(const Variable& a, const Variable& b);
/// a^T b for a (K,N), b (K,M), without materializing the transpose.
Variable matmul_tn(const Variable& a, const Variable& b);
/// a b^T for a (N,K), b (M,K), without materializing the transpose.
Variable matmul_nt(const Variable& a, const Variable& b);
Variable transpose(const Variable& a);

// ---- reductions / broadcast management --------------------------------------
Variable sum_all(const Variable& a);
Variable mean_all(const Variable& a);
/// Reverse-broadcast reduction to `target` shape.
Variable sum_to(const Variable& a, const Shape& target);
Variable broadcast_to(const Variable& a, const Shape& target);

// ---- fused ops ----------------------------------------------------------------
// Single-sweep versions of common multi-node sequences: one kernel pass and
// one tape node instead of two or three of each (see tensor/simd.hpp).
/// tanh(a + bias); a rank-2, bias a row vector ({M} or {1,M}).
Variable bias_tanh(const Variable& a, const Variable& bias);
/// sum(a^2) as a scalar Variable without materializing square(a).
Variable square_sum(const Variable& a);
/// sum(w * a^2); w is same-shape as `a` or a per-row column vector ({N} or
/// {N,1}) against rank-2 `a`. Argument order matches the kernel.
Variable weighted_square_sum(const Variable& w, const Variable& a);

// ---- structural --------------------------------------------------------------
Variable reshape(const Variable& a, const Shape& shape);
Variable slice_cols(const Variable& a, std::int64_t c0, std::int64_t c1);
Variable concat_cols(const std::vector<Variable>& parts);
Variable slice_rows(const Variable& a, std::int64_t r0, std::int64_t r1);
Variable concat_rows(const std::vector<Variable>& parts);

// ---- composite helpers --------------------------------------------------------
/// mean(a^2) — the MSE of a residual against zero.
Variable mse(const Variable& a);
/// Single column c as an (N,1) Variable.
Variable column(const Variable& a, std::int64_t c);

// ---- operator sugar -------------------------------------------------------------
inline Variable operator+(const Variable& a, const Variable& b) { return add(a, b); }
inline Variable operator-(const Variable& a, const Variable& b) { return sub(a, b); }
inline Variable operator*(const Variable& a, const Variable& b) { return mul(a, b); }
inline Variable operator/(const Variable& a, const Variable& b) { return div(a, b); }
inline Variable operator-(const Variable& a) { return neg(a); }
inline Variable operator+(const Variable& a, double s) { return add_scalar(a, s); }
inline Variable operator+(double s, const Variable& a) { return add_scalar(a, s); }
inline Variable operator-(const Variable& a, double s) { return add_scalar(a, -s); }
inline Variable operator-(double s, const Variable& a) { return add_scalar(neg(a), s); }
inline Variable operator*(const Variable& a, double s) { return scale(a, s); }
inline Variable operator*(double s, const Variable& a) { return scale(a, s); }
inline Variable operator/(const Variable& a, double s) { return scale(a, 1.0 / s); }
inline Variable operator/(double s, const Variable& a) { return scale(reciprocal(a), s); }

}  // namespace qpinn::autodiff
