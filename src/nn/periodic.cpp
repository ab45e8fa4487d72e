#include "nn/periodic.hpp"

#include <numbers>

#include "autodiff/ops.hpp"
#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;

PeriodicEmbedding::PeriodicEmbedding(std::vector<double> periods)
    : periods_(std::move(periods)) {
  QPINN_CHECK(!periods_.empty(), "PeriodicEmbedding needs at least one dim");
  out_dim_ = 0;
  for (double period : periods_) {
    QPINN_CHECK(period >= 0.0, "periods must be >= 0 (0 = pass-through)");
    out_dim_ += (period > 0.0) ? 2 : 1;
  }
}

Variable PeriodicEmbedding::forward(const Variable& x) {
  QPINN_CHECK_SHAPE(
      x.value().rank() == 2 &&
          x.value().cols() == static_cast<std::int64_t>(periods_.size()),
      "PeriodicEmbedding expects (N, " + std::to_string(periods_.size()) +
          ") input, got " + shape_to_string(x.shape()));
  using namespace autodiff;
  std::vector<Variable> parts;
  parts.reserve(periods_.size() + 2);
  for (std::size_t d = 0; d < periods_.size(); ++d) {
    const Variable col =
        slice_cols(x, static_cast<std::int64_t>(d),
                   static_cast<std::int64_t>(d) + 1);
    if (periods_[d] > 0.0) {
      const Variable angle = scale(col, 2.0 * std::numbers::pi / periods_[d]);
      parts.push_back(sin(angle));
      parts.push_back(cos(angle));
    } else {
      parts.push_back(col);
    }
  }
  return concat_cols(parts);
}

Jet PeriodicEmbedding::forward_jet(const Jet& x) {
  QPINN_CHECK_SHAPE(
      x.value.value().rank() == 2 &&
          x.value.value().cols() == static_cast<std::int64_t>(periods_.size()),
      "PeriodicEmbedding expects (N, " + std::to_string(periods_.size()) +
          ") input, got " + shape_to_string(x.value.shape()));
  std::vector<Jet> parts;
  parts.reserve(periods_.size() + 2);
  for (std::size_t d = 0; d < periods_.size(); ++d) {
    const auto c = static_cast<std::int64_t>(d);
    const Jet col = x.slice_cols(c, c + 1);
    if (periods_[d] > 0.0) {
      const double w = 2.0 * std::numbers::pi / periods_[d];
      const auto angle = [w](const Variable& v) {
        return autodiff::scale(v, w);
      };
      auto [s, co] = sin_cos(map_linear(col, angle));
      parts.push_back(std::move(s));
      parts.push_back(std::move(co));
    } else {
      parts.push_back(col);
    }
  }
  return concat_jets(parts);
}

}  // namespace qpinn::nn
