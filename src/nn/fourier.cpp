#include "nn/fourier.hpp"

#include <numbers>

#include "autodiff/ops.hpp"
#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;

RandomFourierFeatures::RandomFourierFeatures(std::int64_t in,
                                             std::int64_t num_features,
                                             double sigma, Rng& rng)
    : in_(in), num_features_(num_features) {
  QPINN_CHECK(in > 0 && num_features > 0, "RFF dims must be positive");
  QPINN_CHECK(sigma > 0.0, "RFF sigma must be positive");
  projection_ = Variable::constant(
      Tensor::randn(Shape{in, num_features}, rng, 0.0, sigma));
}

Variable RandomFourierFeatures::forward(const Variable& x) {
  QPINN_CHECK_SHAPE(x.value().rank() == 2 && x.value().cols() == in_,
                    "RFF expects (N, " + std::to_string(in_) + ") input");
  using namespace autodiff;
  const Variable projected =
      scale(matmul(x, projection_), 2.0 * std::numbers::pi);
  return concat_cols({sin(projected), cos(projected)});
}

Jet RandomFourierFeatures::forward_jet(const Jet& x) {
  QPINN_CHECK_SHAPE(
      x.value.value().rank() == 2 && x.value.value().cols() == in_,
      "RFF expects (N, " + std::to_string(in_) + ") input");
  const auto project = [&](const Variable& v) {
    return autodiff::scale(autodiff::matmul(v, projection_),
                           2.0 * std::numbers::pi);
  };
  auto [s, c] = sin_cos(map_linear(x, project));
  return concat_jets({std::move(s), std::move(c)});
}

}  // namespace qpinn::nn
