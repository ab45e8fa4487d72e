#include "nn/activation.hpp"

#include <numbers>

#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;

Activation parse_activation(const std::string& name) {
  if (name == "tanh") return Activation::kTanh;
  if (name == "sin") return Activation::kSin;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "softplus") return Activation::kSoftplus;
  if (name == "relu") return Activation::kRelu;
  if (name == "gelu") return Activation::kGelu;
  if (name == "identity" || name == "none") return Activation::kIdentity;
  throw ValueError("unknown activation '" + name + "'");
}

std::string to_string(Activation activation) {
  switch (activation) {
    case Activation::kTanh: return "tanh";
    case Activation::kSin: return "sin";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kSoftplus: return "softplus";
    case Activation::kRelu: return "relu";
    case Activation::kGelu: return "gelu";
    case Activation::kIdentity: return "identity";
  }
  throw ValueError("invalid Activation enum value");
}

Variable apply_activation(Activation activation, const Variable& x) {
  using namespace autodiff;
  switch (activation) {
    case Activation::kTanh: return tanh(x);
    case Activation::kSin: return sin(x);
    case Activation::kSigmoid: return sigmoid(x);
    case Activation::kSoftplus: return softplus(x);
    case Activation::kRelu: return relu(x);
    case Activation::kGelu: {
      // 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
      const double c =
          std::numbers::sqrt2 * std::numbers::inv_sqrtpi;  // sqrt(2/pi)
      const Variable inner =
          scale(add(x, scale(mul(square(x), x), 0.044715)), c);
      return scale(mul(x, add_scalar(tanh(inner), 1.0)), 0.5);
    }
    case Activation::kIdentity: return x;
  }
  throw ValueError("invalid Activation enum value");
}

Variable apply_activation(Activation activation, const Variable& y,
                          const Variable& bias) {
  if (!bias.defined()) return apply_activation(activation, y);
  if (activation == Activation::kTanh) return autodiff::bias_tanh(y, bias);
  if (activation == Activation::kSin) return autodiff::bias_sin(y, bias);
  return apply_activation(activation, autodiff::add(y, bias));
}

bool has_activation_jet(Activation activation) {
  return activation == Activation::kTanh || activation == Activation::kSin ||
         activation == Activation::kIdentity;
}

Jet activation_jet(Activation activation, const Jet& z, const Variable& bias) {
  using namespace autodiff;
  QPINN_CHECK(has_activation_jet(activation),
              "activation_jet: no jet rule for " + to_string(activation));
  Jet y = z;
  y.value = apply_activation(activation, z.value, bias);
  if (activation == Activation::kIdentity) return y;

  const bool is_tanh = activation == Activation::kTanh;
  Variable d1;  // φ'
  if (is_tanh) {
    d1 = add_scalar(neg(square(y.value)), 1.0);
  } else {
    d1 = cos(bias.defined() ? add(z.value, bias) : z.value);
  }
  Variable d2;  // φ'', built once a second-order stream needs it
  for (std::size_t k = 0; k < z.dims(); ++k) {
    const Variable& zk = z.d1[k];
    y.d1[k] = zk.defined() ? mul(d1, zk) : Variable();
    if (z.order[k] < 2) continue;
    Variable ykk = z.d2[k].defined() ? mul(d1, z.d2[k]) : Variable();
    if (zk.defined()) {
      if (!d2.defined()) {
        d2 = is_tanh ? scale(mul(y.value, d1), -2.0) : neg(y.value);
      }
      const Variable curvature = mul(d2, square(zk));
      ykk = ykk.defined() ? add(ykk, curvature) : curvature;
    }
    y.d2[k] = ykk;
  }
  return y;
}

}  // namespace qpinn::nn
