#include "nn/linear.hpp"

#include "autodiff/ops.hpp"
#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;

Linear::Linear(std::int64_t in, std::int64_t out, Rng& rng, Init init,
               bool with_bias)
    : in_(in), out_(out) {
  QPINN_CHECK(in > 0 && out > 0, "Linear dims must be positive");
  weight_ = Variable::leaf(make_weight(in, out, init, rng));
  if (with_bias) {
    bias_ = Variable::leaf(Tensor::zeros(Shape{1, out}));
  }
}

Variable Linear::forward(const Variable& x) {
  QPINN_CHECK_SHAPE(x.value().rank() == 2 && x.value().cols() == in_,
                    "Linear expects (N, " + std::to_string(in_) +
                        ") input, got " + shape_to_string(x.shape()));
  Variable y = autodiff::matmul(x, weight_);
  if (bias_.defined()) y = autodiff::add(y, bias_);
  return y;
}

Variable Linear::forward_act(const Variable& x, Activation act) {
  QPINN_CHECK_SHAPE(x.value().rank() == 2 && x.value().cols() == in_,
                    "Linear expects (N, " + std::to_string(in_) +
                        ") input, got " + shape_to_string(x.shape()));
  return apply_activation(act, autodiff::matmul(x, weight_), bias_);
}

Jet Linear::forward_act_jet(const Jet& x, Activation act) {
  QPINN_CHECK_SHAPE(x.value.value().rank() == 2 &&
                        x.value.value().cols() == in_,
                    "Linear expects (N, " + std::to_string(in_) +
                        ") input, got " + shape_to_string(x.value.shape()));
  const auto times_weight = [&](const Variable& v) {
    return autodiff::matmul(v, weight_);
  };
  return activation_jet(act, map_linear(x, times_weight), bias_);
}

std::vector<Variable> Linear::parameters() const {
  std::vector<Variable> params{weight_};
  if (bias_.defined()) params.push_back(bias_);
  return params;
}

std::vector<std::pair<std::string, Variable>> Linear::named_parameters()
    const {
  std::vector<std::pair<std::string, Variable>> params{{"weight", weight_}};
  if (bias_.defined()) params.emplace_back("bias", bias_);
  return params;
}

}  // namespace qpinn::nn
