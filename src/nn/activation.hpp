// Activation functions assembled from differentiable ops.
#pragma once

#include <string>

#include "autodiff/ops.hpp"
#include "nn/jet.hpp"

namespace qpinn::nn {

enum class Activation {
  kTanh,      ///< classical PINN default
  kSin,       ///< SIREN-style; pairs well with wave solutions
  kSigmoid,
  kSoftplus,
  kRelu,      ///< second derivative is zero a.e.: unsuitable for 2nd-order
              ///< PDE residuals, provided for baselines
  kGelu,      ///< tanh approximation
  kIdentity,
};

Activation parse_activation(const std::string& name);
std::string to_string(Activation activation);

/// Applies the activation elementwise (fully differentiable to any order,
/// except relu whose higher derivatives vanish a.e.).
autodiff::Variable apply_activation(Activation activation,
                                    const autodiff::Variable& x);

/// activation(y + bias), fusing the bias-add into one kernel sweep (and one
/// tape node) for tanh and sin; other activations compose. `bias` may be
/// undefined (no bias). Results are identical either way.
autodiff::Variable apply_activation(Activation activation,
                                    const autodiff::Variable& y,
                                    const autodiff::Variable& bias);

/// The jet of activation(z + bias) from the jet of z: the value is
/// apply_activation(activation, z.value, bias), and with φ' and φ'' at
/// z + bias each stream follows y_k = φ'·z_k, y_kk = φ'·z_kk + φ''·z_k².
/// Every activation has a rule, and each builds φ' and φ'' once from
/// values the forward already computed where it can: tanh from its own
/// value t (φ' = 1 − t², φ'' = −2t·φ'), sigmoid likewise (φ' = σ(1 − σ),
/// φ'' = φ'(1 − 2σ)), softplus from σ (φ' = σ), relu from the step
/// (φ'' = 0 a.e.), and gelu from the gate of its tanh form.
Jet activation_jet(Activation activation, const Jet& z,
                   const autodiff::Variable& bias);

}  // namespace qpinn::nn
