#include "nn/activation.hpp"

#include <functional>
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

namespace {

/// gelu's tanh form 0.5 x (1 + t), t = tanh(sqrt(2/pi) (x + a x^3)),
/// keeping x^2, t and 1 + t for the jet rule.
struct Gelu {
  static constexpr double kC =
      std::numbers::sqrt2 * std::numbers::inv_sqrtpi;  // sqrt(2/pi)
  static constexpr double kA = 0.044715;
  Variable x2, t, one_plus_t, value;
};

Gelu gelu(const Variable& x) {
  using namespace autodiff;
  Gelu g;
  g.x2 = square(x);
  g.t = tanh(scale(add(x, scale(mul(g.x2, x), Gelu::kA)), Gelu::kC));
  g.one_plus_t = add_scalar(g.t, 1.0);
  g.value = scale(mul(x, g.one_plus_t), 0.5);
  return g;
}

}  // namespace

Variable apply_activation(Activation activation, const Variable& x) {
  using namespace autodiff;
  switch (activation) {
    case Activation::kTanh: return tanh(x);
    case Activation::kSin: return sin(x);
    case Activation::kSigmoid: return sigmoid(x);
    case Activation::kSoftplus: return softplus(x);
    case Activation::kRelu: return relu(x);
    case Activation::kGelu: return gelu(x).value;
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

Jet activation_jet(Activation activation, const Jet& z, const Variable& bias) {
  using namespace autodiff;
  Jet y = z;
  const auto biased = [&] {
    return bias.defined() ? add(z.value, bias) : z.value;
  };
  Variable d1;                        // φ'
  std::function<Variable()> make_d2;  // φ''; empty where it is zero a.e.
  switch (activation) {
    case Activation::kIdentity:
      y.value = apply_activation(activation, z.value, bias);
      return y;
    case Activation::kTanh:
      y.value = apply_activation(activation, z.value, bias);
      d1 = add_scalar(neg(square(y.value)), 1.0);
      make_d2 = [t = y.value, d1] { return scale(mul(t, d1), -2.0); };
      break;
    case Activation::kSin:
      y.value = apply_activation(activation, z.value, bias);
      d1 = cos(biased());
      make_d2 = [s = y.value] { return neg(s); };
      break;
    case Activation::kSigmoid:
      y.value = sigmoid(biased());
      d1 = mul(y.value, add_scalar(neg(y.value), 1.0));
      make_d2 = [s = y.value, d1] {
        return mul(d1, add_scalar(scale(s, -2.0), 1.0));
      };
      break;
    case Activation::kSoftplus: {
      const Variable x = biased();
      y.value = softplus(x);
      d1 = sigmoid(x);
      make_d2 = [d1] { return mul(d1, add_scalar(neg(d1), 1.0)); };
      break;
    }
    case Activation::kRelu: {
      const Variable x = biased();
      y.value = relu(x);
      d1 = step(x);
      break;
    }
    case Activation::kGelu: {
      // g = x (1 + t) / 2 with t = tanh(u), u = c (x + a x^3):
      //   g'  = ((1 + t) + x s u') / 2,           s = 1 - t^2,
      //   g'' = s u' + x s (u'' - 2 t u'^2) / 2,  u' = c (1 + 3a x^2),
      // and u'' = 6ca x. The forward's x^2, t and 1 + t are reused.
      const Variable x = biased();
      const Gelu g = gelu(x);
      const Variable du =
          scale(add_scalar(scale(g.x2, 3.0 * Gelu::kA), 1.0), Gelu::kC);
      const Variable s = add_scalar(neg(square(g.t)), 1.0);
      const Variable xs = mul(x, s);
      d1 = scale(add(g.one_plus_t, mul(xs, du)), 0.5);
      make_d2 = [x, t = g.t, du, s, xs] {
        const Variable d2u = scale(x, 6.0 * Gelu::kC * Gelu::kA);
        const Variable bend = sub(d2u, scale(mul(t, square(du)), 2.0));
        return add(mul(s, du), scale(mul(xs, bend), 0.5));
      };
      y.value = g.value;
      break;
    }
  }
  Variable d2;  // built once a second-order stream needs it
  for (std::size_t k = 0; k < z.dims(); ++k) {
    const Variable& zk = z.d1[k];
    y.d1[k] = zk.defined() ? mul(d1, zk) : Variable();
    if (z.order[k] < 2) continue;
    Variable ykk = z.d2[k].defined() ? mul(d1, z.d2[k]) : Variable();
    if (zk.defined() && make_d2) {
      if (!d2.defined()) d2 = make_d2();
      const Variable curvature = mul(d2, square(zk));
      ykk = ykk.defined() ? add(ykk, curvature) : curvature;
    }
    y.d2[k] = ykk;
  }
  return y;
}

}  // namespace qpinn::nn
