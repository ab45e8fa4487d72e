// Random Fourier feature embedding (Tancik et al. 2020; Rahimi & Recht 2007).
//
// gamma(v) = [sin(2*pi*B v), cos(2*pi*B v)], B ~ N(0, sigma^2), fixed (not
// trained). Mitigates the spectral bias PINNs exhibit on oscillatory
// solutions — the central convergence enhancement in this reproduction.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace qpinn::nn {

class RandomFourierFeatures : public Module {
 public:
  /// Projects `in` dims onto `num_features` random directions; output has
  /// 2 * num_features columns (sin block then cos block).
  RandomFourierFeatures(std::int64_t in, std::int64_t num_features,
                        double sigma, Rng& rng);

  autodiff::Variable forward(const autodiff::Variable& x) override;
  /// One sin and one cos of the projection serve every jet component.
  Jet forward_jet(const Jet& x) override;
  std::vector<autodiff::Variable> parameters() const override { return {}; }
  std::vector<std::pair<std::string, autodiff::Variable>> named_parameters()
      const override {
    return {};
  }
  std::int64_t input_dim() const override { return in_; }
  std::int64_t output_dim() const override { return 2 * num_features_; }

  /// The fixed projection matrix (in, num_features).
  const Tensor& projection() const { return projection_.value(); }

 private:
  std::int64_t in_;
  std::int64_t num_features_;
  autodiff::Variable projection_;  // constant
};

}  // namespace qpinn::nn
