#include "core/curriculum.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace qpinn::core {

void CurriculumConfig::validate() const {
  if (bins < 1) throw ConfigError("curriculum: bins must be >= 1");
  if (warmup_epochs < 1) {
    throw ConfigError("curriculum: warmup_epochs must be >= 1");
  }
  if (min_weight <= 0.0 || min_weight > 1.0) {
    throw ConfigError("curriculum: min_weight must be in (0, 1]");
  }
}

std::vector<double> curriculum_weights(const CurriculumConfig& config,
                                       std::int64_t epoch) {
  config.validate();
  std::vector<double> weights(static_cast<std::size_t>(config.bins));
  const double ramp =
      static_cast<double>(config.warmup_epochs) /
      static_cast<double>(config.bins);
  for (std::int64_t m = 0; m < config.bins; ++m) {
    if (m == 0) {
      weights[0] = 1.0;
      continue;
    }
    const double start = static_cast<double>(m - 1) * ramp;
    const double progress =
        (static_cast<double>(epoch) - start) / std::max(1.0, ramp);
    const double w =
        config.min_weight + (1.0 - config.min_weight) *
                                std::clamp(progress, 0.0, 1.0);
    weights[static_cast<std::size_t>(m)] = w;
  }
  return weights;
}

Tensor per_point_weights(const CurriculumConfig& config, const Domain& domain,
                         const Tensor& X, std::int64_t epoch) {
  domain.require_xt("curriculum");
  QPINN_CHECK_SHAPE(X.rank() == 2 && X.cols() == 2,
                    "per_point_weights expects (N, 2) collocation points");
  const std::vector<double> bin_weights = curriculum_weights(config, epoch);
  const double t_span = domain.t_span();
  Tensor weights(Shape{X.rows(), 1});
  const double* px = X.data();
  double* pw = weights.data();
  for (std::int64_t r = 0; r < X.rows(); ++r) {
    const double t = px[2 * r + 1];
    const double fraction = std::clamp((t - domain.t_lo) / t_span, 0.0, 1.0);
    auto bin = static_cast<std::int64_t>(fraction *
                                         static_cast<double>(config.bins));
    bin = std::min(bin, config.bins - 1);
    pw[r] = bin_weights[static_cast<std::size_t>(bin)];
  }
  return weights;
}

}  // namespace qpinn::core
