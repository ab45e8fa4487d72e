// Fully connected layer.
#pragma once

#include <memory>

#include "nn/activation.hpp"
#include "nn/init.hpp"
#include "nn/module.hpp"

namespace qpinn::nn {

class Linear : public Module {
 public:
  /// Weight (in, out) initialized by `init`; bias (1, out) zeros when
  /// `with_bias`.
  Linear(std::int64_t in, std::int64_t out, Rng& rng,
         Init init = Init::kXavierUniform, bool with_bias = true);

  autodiff::Variable forward(const autodiff::Variable& x) override;
  /// forward followed by `act`, fusing the bias-add with the activation
  /// into one kernel sweep (and one tape node) for tanh and sin — the
  /// PINN-default activations. Other activations and bias-less layers
  /// fall back to the unfused composition; results are identical either
  /// way.
  autodiff::Variable forward_act(const autodiff::Variable& x, Activation act);
  /// The same W maps every jet component; the bias goes on the value only.
  Jet forward_jet(const Jet& x) override {
    return forward_act_jet(x, Activation::kIdentity);
  }
  /// Jet of forward_act (see activation_jet).
  Jet forward_act_jet(const Jet& x, Activation act);
  std::vector<autodiff::Variable> parameters() const override;
  std::vector<std::pair<std::string, autodiff::Variable>> named_parameters()
      const override;
  std::int64_t input_dim() const override { return in_; }
  std::int64_t output_dim() const override { return out_; }

  const autodiff::Variable& weight() const { return weight_; }
  const autodiff::Variable& bias() const { return bias_; }
  bool has_bias() const { return bias_.defined(); }

 private:
  std::int64_t in_;
  std::int64_t out_;
  autodiff::Variable weight_;
  autodiff::Variable bias_;  // undefined when bias disabled
};

}  // namespace qpinn::nn
