#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "tensor/executors.hpp"
#include "util/error.hpp"
#include "util/invariant.hpp"

// Checked builds validate every kernel operand's storage/shape agreement
// on entry (catches use-after-move and metadata corruption at the first
// kernel that would otherwise read through a dangling buffer). Release
// builds compile the calls out.
#ifdef QPINN_CHECKED
#define QPINN_KERNEL_VALIDATE(t, site) (t).validate(site)
#else
#define QPINN_KERNEL_VALIDATE(t, site) \
  do {                                 \
  } while (false)
#endif

namespace qpinn::kernels {

namespace {

/// The value form of every kernel: fresh uninitialized storage of the
/// result shape, filled by the kernel's _into twin.
template <auto Into, class... Args>
Tensor fresh(Shape shape, const Args&... args) {
  Tensor out = Tensor::uninitialized(std::move(shape));
  Into(out, args...);
  return out;
}

std::size_t extent(const Tensor& t) {
  return static_cast<std::size_t>(t.numel());
}

using UnaryExec = void (*)(const double*, double*, std::size_t);
using UnaryScalarExec = void (*)(const double*, double, double*, std::size_t);

/// Validates a same-shape unary operand pair; returns the element count.
std::size_t unary_extent(const Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.unary");
  QPINN_KERNEL_VALIDATE(out, "kernels.unary");
  QPINN_CHECK_SHAPE(out.same_shape(a), "unary output shape mismatch");
  return extent(a);
}

void unary_into(Tensor& out, const Tensor& a, UnaryExec fn) {
  const std::size_t n = unary_extent(out, a);
  fn(a.data(), out.data(), n);
}

void unary_into(Tensor& out, const Tensor& a, double s, UnaryScalarExec fn) {
  const std::size_t n = unary_extent(out, a);
  fn(a.data(), s, out.data(), n);
}

// Strides padded to `rank` with 0 for broadcast dimensions.
exec::Strides broadcast_strides(const Shape& shape, std::size_t rank) {
  const auto natural = row_major_strides(shape);
  exec::Strides out(rank, 0);
  const std::size_t offset = rank - shape.size();
  for (std::size_t i = 0; i < shape.size(); ++i) {
    out[offset + i] = (shape[i] == 1) ? 0 : natural[i];
  }
  return out;
}

void binary_into(Tensor& out, const Tensor& a, const Tensor& b,
                 simd::BinOp op) {
  QPINN_KERNEL_VALIDATE(a, "kernels.binary");
  QPINN_KERNEL_VALIDATE(b, "kernels.binary");
  QPINN_KERNEL_VALIDATE(out, "kernels.binary");
  if (a.same_shape(b)) {
    QPINN_CHECK_SHAPE(out.same_shape(a), "binary output shape mismatch");
    exec::bin_same(op, a.data(), b.data(), out.data(), extent(a));
    return;
  }
  const Shape& shape = out.shape();
  QPINN_CHECK_SHAPE(shape == broadcast_shapes(a.shape(), b.shape()),
                    "binary output shape mismatch");
  // One side is a one-element tensor AND the result keeps the other
  // side's exact shape (a rank-0 scalar against {1,1} must still produce
  // {1,1}, so the shape condition matters).
  if (b.numel() == 1 && shape == a.shape()) {
    exec::bin_scalar_rhs(op, a.data(), b.data()[0], out.data(), extent(a));
    return;
  }
  if (a.numel() == 1 && shape == b.shape()) {
    exec::bin_scalar_lhs(op, a.data()[0], b.data(), out.data(), extent(b));
    return;
  }
  if (is_row_vector_of(b.shape(), a.shape())) {  // the bias-add pattern
    exec::bin_row(op, a.data(), b.data(), out.data(),
                  static_cast<std::size_t>(a.rows()),
                  static_cast<std::size_t>(a.cols()));
    return;
  }
  const std::size_t rank = shape.size();
  exec::bin_strided(op, a.data(), broadcast_strides(a.shape(), rank),
                    b.data(), broadcast_strides(b.shape(), rank), out.data(),
                    row_major_strides(shape), extent(out));
}

/// Result extents of a rank-2 kernel, checked against an _into output
/// without building a Shape.
struct Dims {
  std::int64_t rows, cols;
  Shape shape() const { return {rows, cols}; }
  bool of(const Tensor& t) const {
    return t.rank() == 2 && t.rows() == rows && t.cols() == cols;
  }
};

std::string operands(const Tensor& a, const char* sep, const Tensor& b,
                     const char* suffix = "") {
  return shape_to_string(a.shape()) + sep + shape_to_string(b.shape()) +
         suffix;
}

Dims matmul_dims(const Tensor& a, const Tensor& b) {
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul requires rank-2 operands, got " +
                        operands(a, " x ", b));
  QPINN_CHECK_SHAPE(a.cols() == b.rows(), "matmul inner dimensions mismatch: " +
                                              operands(a, " x ", b));
  return {a.rows(), b.cols()};
}

Dims matmul_tn_dims(const Tensor& a, const Tensor& b) {
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul_tn requires rank-2 operands, got " +
                        operands(a, "^T x ", b));
  QPINN_CHECK_SHAPE(a.rows() == b.rows(), "matmul_tn dimension mismatch: " +
                                              operands(a, "^T x ", b));
  return {a.cols(), b.cols()};
}

Dims matmul_nt_dims(const Tensor& a, const Tensor& b) {
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul_nt requires rank-2 operands, got " +
                        operands(a, " x ", b, "^T"));
  QPINN_CHECK_SHAPE(a.cols() == b.cols(), "matmul_nt dimension mismatch: " +
                                              operands(a, " x ", b, "^T"));
  return {a.rows(), b.rows()};
}

Dims transpose_dims(const Tensor& a) {
  QPINN_CHECK_SHAPE(a.rank() == 2, "transpose requires a rank-2 tensor");
  return {a.cols(), a.rows()};
}

Dims concat_cols_dims(const std::vector<Tensor>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_cols needs at least one tensor");
  const std::int64_t rows = parts.front().rows();
  std::int64_t cols = 0;
  for (const Tensor& p : parts) {
    QPINN_CHECK_SHAPE(p.rank() == 2 && p.rows() == rows,
                      "concat_cols requires rank-2 tensors with equal rows");
    cols += p.cols();
  }
  return {rows, cols};
}

Dims concat_rows_dims(const std::vector<Tensor>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_rows needs at least one tensor");
  const std::int64_t cols = parts.front().cols();
  std::int64_t rows = 0;
  for (const Tensor& p : parts) {
    QPINN_CHECK_SHAPE(p.rank() == 2 && p.cols() == cols,
                      "concat_rows requires rank-2 tensors with equal cols");
    rows += p.rows();
  }
  return {rows, cols};
}

Dims slice_cols_dims(const Tensor& a, std::int64_t c0, std::int64_t c1) {
  QPINN_CHECK_SHAPE(a.rank() == 2, "slice_cols requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(0 <= c0 && c0 < c1 && c1 <= a.cols(),
                    "slice_cols range [" + std::to_string(c0) + ", " +
                        std::to_string(c1) + ") invalid for " +
                        shape_to_string(a.shape()));
  return {a.rows(), c1 - c0};
}

Dims slice_rows_dims(const Tensor& a, std::int64_t r0, std::int64_t r1) {
  QPINN_CHECK_SHAPE(a.rank() == 2, "slice_rows requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(0 <= r0 && r0 < r1 && r1 <= a.rows(),
                    "slice_rows range [" + std::to_string(r0) + ", " +
                        std::to_string(r1) + ") invalid for " +
                        shape_to_string(a.shape()));
  return {r1 - r0, a.cols()};
}

}  // namespace

// ---- value kernels ---------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  return fresh<&add_into>(broadcast_shapes(a.shape(), b.shape()), a, b);
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return fresh<&sub_into>(broadcast_shapes(a.shape(), b.shape()), a, b);
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return fresh<&mul_into>(broadcast_shapes(a.shape(), b.shape()), a, b);
}
Tensor div(const Tensor& a, const Tensor& b) {
  return fresh<&div_into>(broadcast_shapes(a.shape(), b.shape()), a, b);
}
Tensor neg(const Tensor& a) { return fresh<&neg_into>(a.shape(), a); }
Tensor scale(const Tensor& a, double s) {
  return fresh<&scale_into>(a.shape(), a, s);
}
Tensor add_scalar(const Tensor& a, double s) {
  return fresh<&add_scalar_into>(a.shape(), a, s);
}
Tensor exp(const Tensor& a) { return fresh<&exp_into>(a.shape(), a); }
Tensor log(const Tensor& a) { return fresh<&log_into>(a.shape(), a); }
Tensor tanh(const Tensor& a) { return fresh<&tanh_into>(a.shape(), a); }
Tensor sin(const Tensor& a) { return fresh<&sin_into>(a.shape(), a); }
Tensor cos(const Tensor& a) { return fresh<&cos_into>(a.shape(), a); }
Tensor sqrt(const Tensor& a) { return fresh<&sqrt_into>(a.shape(), a); }
Tensor reciprocal(const Tensor& a) {
  return fresh<&reciprocal_into>(a.shape(), a);
}
Tensor square(const Tensor& a) { return fresh<&square_into>(a.shape(), a); }
Tensor pow_scalar(const Tensor& a, double p) {
  return fresh<&pow_scalar_into>(a.shape(), a, p);
}
Tensor abs(const Tensor& a) { return fresh<&abs_into>(a.shape(), a); }
Tensor sign(const Tensor& a) { return fresh<&sign_into>(a.shape(), a); }

Tensor matmul(const Tensor& a, const Tensor& b) {
  return fresh<&matmul_into>(matmul_dims(a, b).shape(), a, b);
}
Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return fresh<&matmul_tn_into>(matmul_tn_dims(a, b).shape(), a, b);
}
Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return fresh<&matmul_nt_into>(matmul_nt_dims(a, b).shape(), a, b);
}
Tensor transpose(const Tensor& a) {
  return fresh<&transpose_into>(transpose_dims(a).shape(), a);
}

Tensor sum_all(const Tensor& a) { return fresh<&sum_all_into>(Shape{}, a); }
Tensor mean_all(const Tensor& a) { return fresh<&mean_all_into>(Shape{}, a); }
// sum_to/broadcast_to return fresh storage on the shapes-equal path too:
// returning `a` itself would alias the caller's storage on exactly one
// path, and an in-place mutation through the "result" (e.g. the backward
// pass accumulating gradients) would silently corrupt the source tensor.
Tensor sum_to(const Tensor& a, const Shape& target) {
  return fresh<&sum_to_into>(target, a);
}
Tensor broadcast_to(const Tensor& a, const Shape& target) {
  return fresh<&broadcast_to_into>(target, a);
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  return fresh<&concat_cols_into>(concat_cols_dims(parts).shape(), parts);
}
Tensor slice_cols(const Tensor& a, std::int64_t c0, std::int64_t c1) {
  return fresh<&slice_cols_into>(slice_cols_dims(a, c0, c1).shape(), a, c0,
                                 c1);
}
Tensor slice_rows(const Tensor& a, std::int64_t r0, std::int64_t r1) {
  return fresh<&slice_rows_into>(slice_rows_dims(a, r0, r1).shape(), a, r0,
                                 r1);
}
Tensor concat_rows(const std::vector<Tensor>& parts) {
  return fresh<&concat_rows_into>(concat_rows_dims(parts).shape(), parts);
}

Tensor bias_tanh(const Tensor& a, const Tensor& bias) {
  return fresh<&bias_tanh_into>(a.shape(), a, bias);
}
Tensor tanh_grad(const Tensor& g, const Tensor& t) {
  return fresh<&tanh_grad_into>(g.shape(), g, t);
}
Tensor square_sum_all(const Tensor& a) {
  return fresh<&square_sum_all_into>(Shape{}, a);
}
Tensor weighted_square_sum_all(const Tensor& w, const Tensor& a) {
  return fresh<&weighted_square_sum_all_into>(Shape{}, w, a);
}

// ---- elementwise ----------------------------------------------------------

void add_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_into(out, a, b, simd::kAdd);
}
void sub_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_into(out, a, b, simd::kSub);
}
void mul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_into(out, a, b, simd::kMul);
}
void div_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_into(out, a, b, simd::kDiv);
}
void neg_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::neg<double>);
}
void scale_into(Tensor& out, const Tensor& a, double s) {
  unary_into(out, a, s, &exec::scale<double>);
}
void add_scalar_into(Tensor& out, const Tensor& a, double s) {
  unary_into(out, a, s, &exec::add_scalar<double>);
}
void exp_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::exp<double>);
}
void log_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::log<double>);
}
void tanh_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::tanh<double>);
}
void sin_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::sin<double>);
}
void cos_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::cos<double>);
}
void sqrt_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::sqrt<double>);
}
void reciprocal_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::reciprocal<double>);
}
void square_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::square<double>);
}
void pow_scalar_into(Tensor& out, const Tensor& a, double p) {
  unary_into(out, a, p, &exec::pow_scalar<double>);
}
void abs_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::abs<double>);
}
void sign_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, &exec::sign<double>);
}

void fill_zero(Tensor& out) {
  QPINN_KERNEL_VALIDATE(out, "kernels.fill_zero");
  exec::fill_zero(out.data(), extent(out));
}

// ---- fused kernels --------------------------------------------------------

void bias_tanh_into(Tensor& out, const Tensor& a, const Tensor& bias) {
  QPINN_KERNEL_VALIDATE(a, "kernels.bias_tanh");
  QPINN_KERNEL_VALIDATE(bias, "kernels.bias_tanh");
  QPINN_CHECK_SHAPE(a.rank() == 2, "bias_tanh requires a rank-2 input, got " +
                                       shape_to_string(a.shape()));
  QPINN_CHECK_SHAPE(is_row_vector_of(bias.shape(), a.shape()),
                    "bias_tanh bias " + shape_to_string(bias.shape()) +
                        " does not match columns of " +
                        shape_to_string(a.shape()));
  QPINN_KERNEL_VALIDATE(out, "kernels.bias_tanh");
  QPINN_CHECK_SHAPE(out.same_shape(a), "bias_tanh output shape mismatch");
  exec::bias_tanh(a.data(), bias.data(), out.data(),
                  static_cast<std::size_t>(a.rows()),
                  static_cast<std::size_t>(a.cols()));
}

void tanh_grad_into(Tensor& out, const Tensor& g, const Tensor& t) {
  QPINN_KERNEL_VALIDATE(g, "kernels.tanh_grad");
  QPINN_KERNEL_VALIDATE(t, "kernels.tanh_grad");
  QPINN_KERNEL_VALIDATE(out, "kernels.tanh_grad");
  QPINN_CHECK_SHAPE(g.same_shape(t), "tanh_grad operand shape mismatch");
  QPINN_CHECK_SHAPE(out.same_shape(g), "tanh_grad output shape mismatch");
  exec::tanh_grad(g.data(), t.data(), out.data(), extent(g));
}

void square_sum_all_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.square_sum_all");
  QPINN_KERNEL_VALIDATE(a, "kernels.square_sum_all");
  QPINN_CHECK_SHAPE(out.numel() == 1, "square_sum_all output must be scalar");
  out.data()[0] = exec::square_sum(a.data(), extent(a));
}

void weighted_square_sum_all_into(Tensor& out, const Tensor& w,
                                  const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.weighted_square_sum_all");
  QPINN_KERNEL_VALIDATE(w, "kernels.weighted_square_sum_all");
  QPINN_KERNEL_VALIDATE(a, "kernels.weighted_square_sum_all");
  QPINN_CHECK_SHAPE(out.numel() == 1,
                    "weighted_square_sum_all output must be scalar");
  if (w.same_shape(a)) {
    out.data()[0] = exec::weighted_square_sum(w.data(), a.data(), extent(a));
    return;
  }
  QPINN_CHECK_SHAPE(is_column_vector_of(w.shape(), a.shape()),
                    "weighted_square_sum_all weights " +
                        shape_to_string(w.shape()) + " do not match " +
                        shape_to_string(a.shape()));
  out.data()[0] = exec::weighted_square_sum_rows(
      w.data(), a.data(), static_cast<std::size_t>(a.rows()),
      static_cast<std::size_t>(a.cols()));
}

// ---- linear algebra -------------------------------------------------------
// No operand value is ever skipped — an earlier `aik == 0.0` shortcut
// silently dropped IEEE NaN/Inf propagation (0 * NaN must be NaN).

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.matmul");
  QPINN_KERNEL_VALIDATE(b, "kernels.matmul");
  QPINN_KERNEL_VALIDATE(out, "kernels.matmul");
  QPINN_CHECK_SHAPE(matmul_dims(a, b).of(out),
                    "matmul output shape mismatch");
  exec::matmul(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.matmul_tn");
  QPINN_KERNEL_VALIDATE(b, "kernels.matmul_tn");
  QPINN_KERNEL_VALIDATE(out, "kernels.matmul_tn");
  QPINN_CHECK_SHAPE(matmul_tn_dims(a, b).of(out),
                    "matmul_tn output shape mismatch");
  exec::matmul_tn(a.data(), b.data(), out.data(), a.cols(), a.rows(),
                  b.cols());
}

void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.matmul_nt");
  QPINN_KERNEL_VALIDATE(b, "kernels.matmul_nt");
  QPINN_KERNEL_VALIDATE(out, "kernels.matmul_nt");
  QPINN_CHECK_SHAPE(matmul_nt_dims(a, b).of(out),
                    "matmul_nt output shape mismatch");
  exec::matmul_nt(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                  b.rows());
}

void transpose_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.transpose");
  QPINN_KERNEL_VALIDATE(out, "kernels.transpose");
  QPINN_CHECK_SHAPE(transpose_dims(a).of(out),
                    "transpose output shape mismatch");
  exec::transpose(a.data(), out.data(), a.rows(), a.cols());
}

// ---- reductions / broadcast management ------------------------------------

void sum_all_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.sum_all");
  QPINN_KERNEL_VALIDATE(a, "kernels.sum_all");
  QPINN_CHECK_SHAPE(out.numel() == 1, "sum_all output must be scalar");
  out.data()[0] = exec::sum(a.data(), extent(a));
}

void mean_all_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.mean_all");
  QPINN_KERNEL_VALIDATE(a, "kernels.mean_all");
  QPINN_CHECK_SHAPE(out.numel() == 1, "mean_all output must be scalar");
  out.data()[0] =
      (1.0 / static_cast<double>(a.numel())) * exec::sum(a.data(), extent(a));
}

void sum_to_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.sum_to");
  QPINN_KERNEL_VALIDATE(out, "kernels.sum_to");
  const Shape& target = out.shape();
  if (a.shape() == target) {
    copy_into(out, a);
    return;
  }
  QPINN_CHECK_SHAPE(broadcastable_to(target, a.shape()),
                    "sum_to target " + shape_to_string(target) +
                        " is not broadcast-compatible with " +
                        shape_to_string(a.shape()));
  // Rank-2 input collapsing rows into a row vector: the bias-gradient
  // pattern, dominant in backward passes.
  if (is_row_vector_of(target, a.shape())) {
    exec::sum_to_rows(a.data(), out.data(), static_cast<std::size_t>(a.rows()),
                      static_cast<std::size_t>(a.cols()));
    return;
  }
  exec::sum_to_strided(a.data(), row_major_strides(a.shape()), out.data(),
                       broadcast_strides(target, a.shape().size()),
                       a.numel(), out.numel());
}

void broadcast_to_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.broadcast_to");
  QPINN_KERNEL_VALIDATE(out, "kernels.broadcast_to");
  const Shape& target = out.shape();
  if (a.shape() == target) {
    copy_into(out, a);
    return;
  }
  QPINN_CHECK_SHAPE(broadcastable_to(a.shape(), target),
                    "cannot broadcast " + shape_to_string(a.shape()) + " to " +
                        shape_to_string(target));
  exec::broadcast_strided(a.data(), broadcast_strides(a.shape(), target.size()),
                          out.data(), row_major_strides(target), extent(out));
}

// ---- structural -----------------------------------------------------------

void concat_cols_into(Tensor& out, const std::vector<Tensor>& parts) {
  const Dims dims = concat_cols_dims(parts);
  QPINN_KERNEL_VALIDATE(out, "kernels.concat_cols");
  QPINN_CHECK_SHAPE(dims.of(out), "concat_cols output shape mismatch");
  const std::int64_t rows = dims.rows, total_cols = dims.cols;
  double* po = out.data();
  std::int64_t col_offset = 0;
  for (const Tensor& p : parts) {
    const double* pp = p.data();
    const std::int64_t pc = p.cols();
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy(pp + r * pc, pp + (r + 1) * pc,
                po + r * total_cols + col_offset);
    }
    col_offset += pc;
  }
}

void concat_rows_into(Tensor& out, const std::vector<Tensor>& parts) {
  QPINN_CHECK_SHAPE(concat_rows_dims(parts).of(out),
                    "concat_rows output shape mismatch");
  QPINN_KERNEL_VALIDATE(out, "kernels.concat_rows");
  double* po = out.data();
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), po);
    po += p.numel();
  }
}

void slice_cols_into(Tensor& out, const Tensor& a, std::int64_t c0,
                     std::int64_t c1) {
  QPINN_KERNEL_VALIDATE(a, "kernels.slice_cols");
  QPINN_KERNEL_VALIDATE(out, "kernels.slice_cols");
  QPINN_CHECK_SHAPE(slice_cols_dims(a, c0, c1).of(out),
                    "slice_cols output shape mismatch");
  const std::int64_t rows = a.rows(), cols = a.cols(), width = c1 - c0;
  const double* pa = a.data();
  double* po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy(pa + r * cols + c0, pa + r * cols + c1, po + r * width);
  }
}

void slice_rows_into(Tensor& out, const Tensor& a, std::int64_t r0,
                     std::int64_t r1) {
  QPINN_KERNEL_VALIDATE(a, "kernels.slice_rows");
  QPINN_KERNEL_VALIDATE(out, "kernels.slice_rows");
  QPINN_CHECK_SHAPE(slice_rows_dims(a, r0, r1).of(out),
                    "slice_rows output shape mismatch");
  const std::int64_t cols = a.cols();
  std::copy(a.data() + r0 * cols, a.data() + r1 * cols, out.data());
}

// ---- in-place helpers -----------------------------------------------------

void axpy_inplace(Tensor& dst, double s, const Tensor& src) {
  QPINN_KERNEL_VALIDATE(dst, "kernels.axpy_inplace");
  QPINN_KERNEL_VALIDATE(src, "kernels.axpy_inplace");
  QPINN_CHECK_SHAPE(dst.same_shape(src), "axpy_inplace shape mismatch");
  exec::axpy(dst.data(), s, src.data(), extent(dst));
}

void scale_inplace(Tensor& dst, double s) {
  QPINN_KERNEL_VALIDATE(dst, "kernels.scale_inplace");
  exec::scale_inplace(dst.data(), s, extent(dst));
}

void copy_into(Tensor& dst, const Tensor& src) {
  QPINN_KERNEL_VALIDATE(dst, "kernels.copy_into");
  QPINN_KERNEL_VALIDATE(src, "kernels.copy_into");
  QPINN_CHECK_SHAPE(dst.same_shape(src), "copy_into shape mismatch");
  exec::copy(dst.data(), src.data(), extent(src));
}

void adam_step_inplace(Tensor& param, const Tensor& grad, Tensor& m,
                       Tensor& v, const AdamStepConfig& cfg) {
  QPINN_KERNEL_VALIDATE(param, "kernels.adam_step_inplace");
  QPINN_KERNEL_VALIDATE(grad, "kernels.adam_step_inplace");
  QPINN_KERNEL_VALIDATE(m, "kernels.adam_step_inplace");
  QPINN_KERNEL_VALIDATE(v, "kernels.adam_step_inplace");
  QPINN_CHECK_SHAPE(param.same_shape(grad) && param.same_shape(m) &&
                        param.same_shape(v),
                    "adam_step_inplace shape mismatch");
  simd::AdamParams sp;
  sp.lr = cfg.lr;
  sp.beta1 = cfg.beta1;
  sp.beta2 = cfg.beta2;
  sp.eps = cfg.eps;
  sp.bias_corr1 = cfg.bias_corr1;
  sp.bias_corr2 = cfg.bias_corr2;
  exec::adam(param.data(), grad.data(), m.data(), v.data(), extent(param), sp);
}

double dot(const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.dot");
  QPINN_KERNEL_VALIDATE(b, "kernels.dot");
  QPINN_CHECK_SHAPE(a.same_shape(b), "dot shape mismatch");
  return exec::dot(a.data(), b.data(), extent(a));
}

double norm2(const Tensor& a) { return std::sqrt(dot(a, a)); }

}  // namespace qpinn::kernels
