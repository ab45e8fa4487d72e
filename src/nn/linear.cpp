#include "nn/linear.hpp"

#include <cmath>

#include "autodiff/ops.hpp"
#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;

Linear::Linear(std::int64_t in, std::int64_t out, Rng& rng)
    : in_(in), out_(out) {
  QPINN_CHECK(in > 0 && out > 0, "Linear dims must be positive");
  const double bound =
      std::sqrt(6.0 / (static_cast<double>(in) + static_cast<double>(out)));
  weight_ = Variable::leaf(Tensor::rand(Shape{in, out}, rng, -bound, bound));
  bias_ = Variable::leaf(Tensor::zeros(Shape{1, out}));
}

Variable Linear::forward(const Variable& x) {
  QPINN_CHECK_SHAPE(x.value().rank() == 2 && x.value().cols() == in_,
                    "Linear expects (N, " + std::to_string(in_) +
                        ") input, got " + shape_to_string(x.shape()));
  return autodiff::add(autodiff::matmul(x, weight_), bias_);
}

Variable Linear::forward_tanh(const Variable& x) {
  QPINN_CHECK_SHAPE(x.value().rank() == 2 && x.value().cols() == in_,
                    "Linear expects (N, " + std::to_string(in_) +
                        ") input, got " + shape_to_string(x.shape()));
  return autodiff::bias_tanh(autodiff::matmul(x, weight_), bias_);
}

Jet Linear::times_weight(const Jet& x) const {
  QPINN_CHECK_SHAPE(x.value.value().rank() == 2 &&
                        x.value.value().cols() == in_,
                    "Linear expects (N, " + std::to_string(in_) +
                        ") input, got " + shape_to_string(x.value.shape()));
  return map_linear(
      x, [&](const Variable& v) { return autodiff::matmul(v, weight_); });
}

Jet Linear::forward_jet(const Jet& x) {
  Jet y = times_weight(x);
  y.value = autodiff::add(y.value, bias_);
  return y;
}

Jet Linear::forward_tanh_jet(const Jet& x) {
  using namespace autodiff;
  const Jet z = times_weight(x);
  Jet y = z;
  y.value = bias_tanh(z.value, bias_);
  const Variable d1 = add_scalar(neg(square(y.value)), 1.0);  // φ'
  Variable d2;                                                // φ''
  for (std::size_t k = 0; k < z.dims(); ++k) {
    const Variable& zk = z.d1[k];
    y.d1[k] = zk.defined() ? mul(d1, zk) : Variable();
    if (z.order[k] < 2) continue;
    Variable ykk = z.d2[k].defined() ? mul(d1, z.d2[k]) : Variable();
    if (zk.defined()) {
      if (!d2.defined()) d2 = scale(mul(y.value, d1), -2.0);
      const Variable curvature = mul(d2, square(zk));
      ykk = ykk.defined() ? add(ykk, curvature) : curvature;
    }
    y.d2[k] = ykk;
  }
  return y;
}

std::vector<Variable> Linear::parameters() const { return {weight_, bias_}; }

std::vector<std::pair<std::string, Variable>> Linear::named_parameters()
    const {
  return {{"weight", weight_}, {"bias", bias_}};
}

}  // namespace qpinn::nn
