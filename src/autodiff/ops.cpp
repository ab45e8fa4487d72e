#include "autodiff/ops.hpp"

#include <algorithm>

#include "autodiff/plan.hpp"
#include "tensor/kernels.hpp"
#include "util/error.hpp"

namespace qpinn::autodiff {

namespace k = qpinn::kernels;

namespace {

thread_local bool g_grad_enabled = true;

/// Parent i of a backward invocation.
const Variable& parent(const Variable& self, std::size_t i) {
  return self.node()->parents[i];
}

/// True when parent i needs a gradient (used to skip dead computations).
bool needs(const Variable& self, std::size_t i) {
  return self.node()->parents[i].requires_grad();
}

// Capture-aware kernel launchers: compute the value eagerly and, while an
// execution plan is recording, append a structured thunk that re-runs the
// SAME kernel into the SAME buffer (the `_into` variants in
// tensor/kernels.hpp), so replay is bit-identical to the captured eager
// step and the optimizer passes can inspect the kernel identity.
Tensor run1(Tensor (*f)(const Tensor&), void (*fi)(Tensor&, const Tensor&),
            const Tensor& a) {
  Tensor out = f(a);
  plan::record_unary(out, fi, a);
  return out;
}

Tensor run1s(Tensor (*f)(const Tensor&, double),
             void (*fi)(Tensor&, const Tensor&, double), const Tensor& a,
             double s) {
  Tensor out = f(a, s);
  plan::record_unary_scalar(out, fi, a, s);
  return out;
}

Tensor run2(Tensor (*f)(const Tensor&, const Tensor&),
            void (*fi)(Tensor&, const Tensor&, const Tensor&), const Tensor& a,
            const Tensor& b) {
  Tensor out = f(a, b);
  plan::record_binary(out, fi, a, b);
  return out;
}

}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool grad_mode_enabled() { return g_grad_enabled; }

// make_op wrapper honoring the thread-local grad mode.
namespace {
Variable op(const char* name, Tensor value, std::vector<Variable> parents,
            std::function<std::vector<Variable>(const Variable&,
                                                const Variable&)>
                backward) {
  if (!g_grad_enabled) {
    return Variable::constant(std::move(value));
  }
  return make_op(name, std::move(value), std::move(parents),
                 std::move(backward));
}
}  // namespace

// ---- binary ----------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  return op("add", run2(&k::add, &k::add_into, a.value(), b.value()), {a, b},
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads(2);
              if (needs(self, 0))
                grads[0] = sum_to(g, parent(self, 0).shape());
              if (needs(self, 1))
                grads[1] = sum_to(g, parent(self, 1).shape());
              return grads;
            });
}

Variable sub(const Variable& a, const Variable& b) {
  return op("sub", run2(&k::sub, &k::sub_into, a.value(), b.value()), {a, b},
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads(2);
              if (needs(self, 0))
                grads[0] = sum_to(g, parent(self, 0).shape());
              if (needs(self, 1))
                grads[1] = neg(sum_to(g, parent(self, 1).shape()));
              return grads;
            });
}

Variable mul(const Variable& a, const Variable& b) {
  return op("mul", run2(&k::mul, &k::mul_into, a.value(), b.value()), {a, b},
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads(2);
              if (needs(self, 0))
                grads[0] = sum_to(mul(g, parent(self, 1)),
                                  parent(self, 0).shape());
              if (needs(self, 1))
                grads[1] = sum_to(mul(g, parent(self, 0)),
                                  parent(self, 1).shape());
              return grads;
            });
}

Variable div(const Variable& a, const Variable& b) {
  return op("div", run2(&k::div, &k::div_into, a.value(), b.value()), {a, b},
            [](const Variable& g, const Variable& self) {
              const Variable& a_ = parent(self, 0);
              const Variable& b_ = parent(self, 1);
              std::vector<Variable> grads(2);
              if (needs(self, 0)) grads[0] = sum_to(div(g, b_), a_.shape());
              if (needs(self, 1)) {
                grads[1] =
                    neg(sum_to(mul(g, div(a_, square(b_))), b_.shape()));
              }
              return grads;
            });
}

// ---- unary ------------------------------------------------------------------

Variable neg(const Variable& a) {
  return op("neg", run1(&k::neg, &k::neg_into, a.value()), {a},
            [](const Variable& g, const Variable&) {
              return std::vector<Variable>{neg(g)};
            });
}

Variable scale(const Variable& a, double s) {
  return op("scale", run1s(&k::scale, &k::scale_into, a.value(), s), {a},
            [s](const Variable& g, const Variable&) {
              return std::vector<Variable>{scale(g, s)};
            });
}

Variable add_scalar(const Variable& a, double s) {
  return op("add_scalar",
            run1s(&k::add_scalar, &k::add_scalar_into, a.value(), s), {a},
            [](const Variable& g, const Variable&) {
              return std::vector<Variable>{g};
            });
}

Variable exp(const Variable& a) {
  return op("exp", run1(&k::exp, &k::exp_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{mul(g, self)};
            });
}

Variable log(const Variable& a) {
  return op("log", run1(&k::log, &k::log_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{div(g, parent(self, 0))};
            });
}

Variable tanh(const Variable& a) {
  return op("tanh", run1(&k::tanh, &k::tanh_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              // d tanh = 1 - tanh^2; reuse the forward value through `self`
              // so the second derivative flows through tanh's own graph.
              return std::vector<Variable>{
                  mul(g, add_scalar(neg(square(self)), 1.0))};
            });
}

Variable sin(const Variable& a) {
  return op("sin", run1(&k::sin, &k::sin_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{mul(g, cos(parent(self, 0)))};
            });
}

Variable cos(const Variable& a) {
  return op("cos", run1(&k::cos, &k::cos_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{neg(mul(g, sin(parent(self, 0))))};
            });
}

Variable sqrt(const Variable& a) {
  return op("sqrt", run1(&k::sqrt, &k::sqrt_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{scale(div(g, self), 0.5)};
            });
}

Variable reciprocal(const Variable& a) {
  return op("reciprocal", run1(&k::reciprocal, &k::reciprocal_into, a.value()),
            {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{neg(mul(g, square(self)))};
            });
}

Variable square(const Variable& a) {
  return op("square", run1(&k::square, &k::square_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  scale(mul(g, parent(self, 0)), 2.0)};
            });
}

Variable pow_scalar(const Variable& a, double p) {
  return op("pow_scalar",
            run1s(&k::pow_scalar, &k::pow_scalar_into, a.value(), p), {a},
            [p](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  scale(mul(g, pow_scalar(parent(self, 0), p - 1.0)), p)};
            });
}

Variable abs(const Variable& a) {
  return op("abs", run1(&k::abs, &k::abs_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              const Variable sgn = Variable::constant(
                  run1(&k::sign, &k::sign_into, parent(self, 0).value()));
              return std::vector<Variable>{mul(g, sgn)};
            });
}

// ---- linear algebra ---------------------------------------------------------

Variable matmul(const Variable& a, const Variable& b) {
  return op("matmul", run2(&k::matmul, &k::matmul_into, a.value(), b.value()),
            {a, b},
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads(2);
              if (needs(self, 0)) grads[0] = matmul_nt(g, parent(self, 1));
              if (needs(self, 1)) grads[1] = matmul_tn(parent(self, 0), g);
              return grads;
            });
}

Variable matmul_tn(const Variable& a, const Variable& b) {
  return op("matmul_tn",
            run2(&k::matmul_tn, &k::matmul_tn_into, a.value(), b.value()),
            {a, b},
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads(2);
              if (needs(self, 0)) grads[0] = matmul_nt(parent(self, 1), g);
              if (needs(self, 1)) grads[1] = matmul(parent(self, 0), g);
              return grads;
            });
}

Variable matmul_nt(const Variable& a, const Variable& b) {
  return op("matmul_nt",
            run2(&k::matmul_nt, &k::matmul_nt_into, a.value(), b.value()),
            {a, b},
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads(2);
              if (needs(self, 0)) grads[0] = matmul(g, parent(self, 1));
              if (needs(self, 1)) grads[1] = matmul_tn(g, parent(self, 0));
              return grads;
            });
}

Variable transpose(const Variable& a) {
  return op("transpose", run1(&k::transpose, &k::transpose_into, a.value()),
            {a},
            [](const Variable& g, const Variable&) {
              return std::vector<Variable>{transpose(g)};
            });
}

// ---- reductions -------------------------------------------------------------

Variable sum_all(const Variable& a) {
  return op("sum_all", run1(&k::sum_all, &k::sum_all_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  broadcast_to(g, parent(self, 0).shape())};
            });
}

Variable mean_all(const Variable& a) {
  const double inv_n = 1.0 / static_cast<double>(a.numel());
  return scale(sum_all(a), inv_n);
}

Variable sum_to(const Variable& a, const Shape& target) {
  if (a.shape() == target) return a;
  Tensor value = k::sum_to(a.value(), target);
  plan::record_unary(value, &k::sum_to_into, a.value());
  return op("sum_to", std::move(value), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  broadcast_to(g, parent(self, 0).shape())};
            });
}

Variable broadcast_to(const Variable& a, const Shape& target) {
  if (a.shape() == target) return a;
  Tensor value = k::broadcast_to(a.value(), target);
  plan::record_unary(value, &k::broadcast_to_into, a.value());
  return op("broadcast_to", std::move(value), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  sum_to(g, parent(self, 0).shape())};
            });
}

// ---- fused ------------------------------------------------------------------

Variable bias_tanh(const Variable& a, const Variable& bias) {
  return op("bias_tanh",
            run2(&k::bias_tanh, &k::bias_tanh_into, a.value(), bias.value()),
            {a, bias},
            [](const Variable& g, const Variable& self) {
              // d tanh(x + b) = 1 - tanh^2(x + b); reuse the forward value
              // through `self` like tanh does.
              const Variable dx =
                  mul(g, add_scalar(neg(square(self)), 1.0));
              std::vector<Variable> grads(2);
              if (needs(self, 0)) grads[0] = dx;
              if (needs(self, 1))
                grads[1] = sum_to(dx, parent(self, 1).shape());
              return grads;
            });
}

Variable square_sum(const Variable& a) {
  return op("square_sum",
            run1(&k::square_sum_all, &k::square_sum_all_into, a.value()), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  scale(mul(g, parent(self, 0)), 2.0)};
            });
}

Variable weighted_square_sum(const Variable& w, const Variable& a) {
  return op("weighted_square_sum",
            run2(&k::weighted_square_sum_all, &k::weighted_square_sum_all_into,
                 w.value(), a.value()),
            {w, a},
            [](const Variable& g, const Variable& self) {
              const Variable& w_ = parent(self, 0);
              const Variable& a_ = parent(self, 1);
              std::vector<Variable> grads(2);
              if (needs(self, 0))
                grads[0] = mul(g, sum_to(square(a_), w_.shape()));
              if (needs(self, 1))
                grads[1] = scale(mul(g, mul(w_, a_)), 2.0);
              return grads;
            });
}

// ---- structural -------------------------------------------------------------

Variable reshape(const Variable& a, const Shape& shape) {
  // Shares the parent's storage — nothing to record for replay.
  if (a.shape() == shape) return a;
  return op("reshape", a.value().reshape(shape), {a},
            [](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  reshape(g, parent(self, 0).shape())};
            });
}

namespace {
// Embeds `g` into a zero matrix at column offset c0 (out carries the target
// column count); full overwrite, so safe as a replay thunk.
void pad_cols_tensor_into(Tensor& out, const Tensor& g, std::int64_t c0) {
  std::fill(out.data(), out.data() + out.numel(), 0.0);
  const std::int64_t w = g.cols(), cols = out.cols();
  double* po = out.data();
  const double* pg = g.data();
  for (std::int64_t r = 0; r < g.rows(); ++r) {
    std::copy(pg + r * w, pg + (r + 1) * w, po + r * cols + c0);
  }
}

Tensor pad_cols_tensor(const Tensor& g, std::int64_t c0, std::int64_t cols) {
  Tensor out = Tensor::uninitialized(Shape{g.rows(), cols});
  pad_cols_tensor_into(out, g, c0);
  plan::record_opaque(out, {g},
                      [c0](Tensor& o, const std::vector<Tensor>& in) {
                        pad_cols_tensor_into(o, in[0], c0);
                      });
  return out;
}

Variable pad_cols(const Variable& g, std::int64_t c0, std::int64_t cols);

void pad_rows_tensor_into(Tensor& out, const Tensor& g, std::int64_t r0) {
  std::fill(out.data(), out.data() + out.numel(), 0.0);
  std::copy(g.data(), g.data() + g.numel(), out.data() + r0 * g.cols());
}

Tensor pad_rows_tensor(const Tensor& g, std::int64_t r0, std::int64_t rows) {
  Tensor out = Tensor::uninitialized(Shape{rows, g.cols()});
  pad_rows_tensor_into(out, g, r0);
  plan::record_opaque(out, {g},
                      [r0](Tensor& o, const std::vector<Tensor>& in) {
                        pad_rows_tensor_into(o, in[0], r0);
                      });
  return out;
}

Variable pad_rows(const Variable& g, std::int64_t r0, std::int64_t rows);
}  // namespace

Variable slice_cols(const Variable& a, std::int64_t c0, std::int64_t c1) {
  Tensor value = k::slice_cols(a.value(), c0, c1);
  plan::record_opaque(value, {a.value()},
                      [c0, c1](Tensor& o, const std::vector<Tensor>& in) {
                        k::slice_cols_into(o, in[0], c0, c1);
                      });
  return op("slice_cols", std::move(value), {a},
            [c0](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  pad_cols(g, c0, parent(self, 0).value().cols())};
            });
}

namespace {
Variable pad_cols(const Variable& g, std::int64_t c0, std::int64_t cols) {
  return op("pad_cols", pad_cols_tensor(g.value(), c0, cols), {g},
            [c0](const Variable& gg, const Variable& self) {
              const std::int64_t w = parent(self, 0).value().cols();
              return std::vector<Variable>{slice_cols(gg, c0, c0 + w)};
            });
}

Variable pad_rows(const Variable& g, std::int64_t r0, std::int64_t rows) {
  return op("pad_rows", pad_rows_tensor(g.value(), r0, rows), {g},
            [r0](const Variable& gg, const Variable& self) {
              const std::int64_t h = parent(self, 0).value().rows();
              return std::vector<Variable>{slice_rows(gg, r0, r0 + h)};
            });
}
}  // namespace

Variable concat_cols(const std::vector<Variable>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_cols needs at least one Variable");
  if (parts.size() == 1) return parts.front();
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor value = k::concat_cols(values);
  plan::record_opaque(value, values, &k::concat_cols_into);
  return op("concat_cols", std::move(value), parts,
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads;
              grads.reserve(self.node()->parents.size());
              std::int64_t offset = 0;
              for (const Variable& p : self.node()->parents) {
                const std::int64_t w = p.value().cols();
                grads.push_back(
                    p.requires_grad()
                        ? slice_cols(g, offset, offset + w)
                        : Variable());
                offset += w;
              }
              return grads;
            });
}

Variable slice_rows(const Variable& a, std::int64_t r0, std::int64_t r1) {
  Tensor value = k::slice_rows(a.value(), r0, r1);
  plan::record_opaque(value, {a.value()},
                      [r0, r1](Tensor& o, const std::vector<Tensor>& in) {
                        k::slice_rows_into(o, in[0], r0, r1);
                      });
  return op("slice_rows", std::move(value), {a},
            [r0](const Variable& g, const Variable& self) {
              return std::vector<Variable>{
                  pad_rows(g, r0, parent(self, 0).value().rows())};
            });
}

Variable concat_rows(const std::vector<Variable>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_rows needs at least one Variable");
  if (parts.size() == 1) return parts.front();
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor value = k::concat_rows(values);
  plan::record_opaque(value, values, &k::concat_rows_into);
  return op("concat_rows", std::move(value), parts,
            [](const Variable& g, const Variable& self) {
              std::vector<Variable> grads;
              grads.reserve(self.node()->parents.size());
              std::int64_t offset = 0;
              for (const Variable& p : self.node()->parents) {
                const std::int64_t h = p.value().rows();
                grads.push_back(
                    p.requires_grad()
                        ? slice_rows(g, offset, offset + h)
                        : Variable());
                offset += h;
              }
              return grads;
            });
}

// ---- composite --------------------------------------------------------------

Variable mse(const Variable& a) {
  // Fused sum-of-squares reduction; same math as mean_all(square(a)) with
  // one pass and no squared intermediate.
  return scale(square_sum(a), 1.0 / static_cast<double>(a.numel()));
}

Variable column(const Variable& a, std::int64_t c) {
  return slice_cols(a, c, c + 1);
}

}  // namespace qpinn::autodiff
