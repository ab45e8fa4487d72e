// Fully connected layer.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace qpinn::nn {

class Linear : public Module {
 public:
  /// Weight (in, out) drawn Xavier-uniform, U(-sqrt(6/(in+out)), +...);
  /// bias (1, out) zeros.
  Linear(std::int64_t in, std::int64_t out, Rng& rng);

  /// x W + b: the plain affine map (the network's output head).
  autodiff::Variable forward(const autodiff::Variable& x) override;
  /// tanh(x W + b), fusing the bias-add with tanh into one kernel sweep
  /// (and one tape node): the hidden-layer map.
  autodiff::Variable forward_tanh(const autodiff::Variable& x);
  /// The same W maps every jet component; the bias goes on the value only.
  Jet forward_jet(const Jet& x) override;
  /// Jet of forward_tanh. With t the value, φ' = 1 − t² and
  /// φ'' = −2t·φ', each stream follows y_k = φ'·z_k and
  /// y_kk = φ'·z_kk + φ''·z_k²; φ'' is built once, when a second-order
  /// stream first needs it.
  Jet forward_tanh_jet(const Jet& x);
  std::vector<autodiff::Variable> parameters() const override;
  std::vector<std::pair<std::string, autodiff::Variable>> named_parameters()
      const override;
  std::int64_t input_dim() const override { return in_; }
  std::int64_t output_dim() const override { return out_; }

  const autodiff::Variable& weight() const { return weight_; }
  const autodiff::Variable& bias() const { return bias_; }

 private:
  /// The jet of x W (every component mapped by W).
  Jet times_weight(const Jet& x) const;

  std::int64_t in_;
  std::int64_t out_;
  autodiff::Variable weight_;
  autodiff::Variable bias_;
};

}  // namespace qpinn::nn
