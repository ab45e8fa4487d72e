// The PINN field model: a backbone network mapping (x, t) -> (u, v), or
// (x, y, t) -> (u, v) in two space dimensions, with an optional hard
// initial-condition transform
//
//   psi_theta(x, t) = psi0(x) + (t - t0) * NN_theta(x, t)
//
// which enforces the IC exactly (the IC loss becomes unnecessary) — one of
// the ablation dimensions in the experiments. A stationary model maps x
// alone to one real output phi(x) = e(x) * NN_theta(x), with an envelope e
// vanishing at two Dirichlet walls (the eigen-PINN).
#pragma once

#include <memory>
#include <optional>

#include "core/field_ops.hpp"
#include "nn/mlp.hpp"

namespace qpinn::core {

/// psi0 receives the (N, S) block of space columns: x, or (x, y).
struct HardIc {
  FieldOp psi0;
  double t0 = 0.0;
};

/// Fixed affine input normalization (x, [y], t) -> ((x - cx)/sx, ...)
/// mapping the training domain onto [-1, 1]^(S+1). Keeps tanh layers and
/// Fourier features in their useful range regardless of domain size.
struct InputNormalization {
  double x_center = 0.0, x_half_span = 1.0;
  double t_center = 0.0, t_half_span = 1.0;
  double y_center = 0.0, y_half_span = 1.0;

  static InputNormalization for_domain(double x_lo, double x_hi, double t_lo,
                                       double t_hi);
};

/// psi = (u, v) and the derivatives every Schrödinger residual needs,
/// each (N, 1). u_xx and v_xx are the spatial Laplacian: the xx derivative
/// with one space axis, xx + yy with two. A stationary model fills u and
/// u_xx only.
struct FieldDerivatives {
  autodiff::Variable u, v;
  autodiff::Variable u_t, v_t;
  autodiff::Variable u_xx, v_xx;
};

class FieldModel {
 public:
  /// Takes ownership of the backbone; input_dim must be S + 1 with S = 1
  /// or 2 space axes (t is the last column) and out_dim must be 2 (u, v).
  /// The backbone sees normalized inputs when `normalization` is set.
  FieldModel(std::unique_ptr<nn::Module> backbone,
             std::optional<HardIc> hard_ic = std::nullopt,
             std::optional<InputNormalization> normalization = std::nullopt);

  /// The stationary kind: a backbone with one input and one output, and
  /// phi = e(x) NN(x) with Dirichlet walls at a < b (envelope_field).
  FieldModel(std::unique_ptr<nn::Module> backbone, double a, double b);

  /// The forward graph for a batch X of (x, [y], t) rows; returns (N, 2).
  /// A stationary model takes (N, 1) x rows and returns phi, (N, 1).
  autodiff::Variable forward(const autodiff::Variable& X);

  /// psi, psi_t and the Laplacian of psi at a batch X of (x, [y], t) rows,
  /// from one forward jet of the backbone (nn::Module::forward_jet). The
  /// results carry no graph back to X, and the parameter gradient of a
  /// loss on them is one reverse sweep. psi0 of a hard IC is an arbitrary
  /// FieldOp with no parameters, so its space derivatives come from
  /// reverse-mode `partial` on its own [N, S] block and enter as
  /// constants. u and v equal forward(X)'s columns bit for bit.
  FieldDerivatives derivatives(const autodiff::Variable& X);

  /// Evaluates without building graphs (metrics / inference).
  Tensor evaluate(const Tensor& X);

  std::vector<autodiff::Variable> parameters() const {
    return backbone_->parameters();
  }
  std::vector<std::pair<std::string, autodiff::Variable>> named_parameters()
      const {
    return backbone_->named_parameters();
  }
  std::int64_t num_parameters() const { return backbone_->num_parameters(); }
  bool has_hard_ic() const { return hard_ic_.has_value(); }
  nn::Module& backbone() { return *backbone_; }

 private:
  /// The backbone input for X: X itself, or its normalized columns.
  autodiff::Variable network_input(const autodiff::Variable& X) const;

  std::unique_ptr<nn::Module> backbone_;
  std::optional<HardIc> hard_ic_;
  std::optional<InputNormalization> normalization_;
  std::int64_t space_dims_ = 1;  ///< S
  std::optional<std::pair<double, double>> walls_;  ///< stationary kind
};

/// The Dirichlet envelope field phi = 4 (x - a)(b - x) / (b - a)^2 * NN(x)
/// and phi_xx at a column x (N, 1), from one forward jet of `net` (product
/// rule phi'' = e NN'' + 2 e' NN' + e'' NN).
std::pair<autodiff::Variable, autodiff::Variable> envelope_field(
    nn::Module& net, const autodiff::Variable& x, double a, double b);

/// Architecture + feature configuration of the standard QPINN field model.
struct FieldModelConfig {
  std::vector<std::int64_t> hidden = {64, 64, 64, 64};
  /// Random Fourier features (nullopt disables).
  std::optional<nn::FourierConfig> fourier = nn::FourierConfig{64, 1.0};
  /// Period of the x coordinate (0 = not periodic). Time is never embedded
  /// periodically.
  double x_period = 0.0;
  /// Exact-IC transform (nullopt disables; the IC is then a loss term).
  std::optional<HardIc> hard_ic;
  /// Affine input normalization (strongly recommended; set from the
  /// problem domain). With x_period set, the periodic embedding runs on
  /// raw x and only t is normalized.
  std::optional<InputNormalization> normalization;
  std::uint64_t seed = 0;
};

/// Builds the standard 2-input (x, t) -> 2-output (u, v) model.
std::shared_ptr<FieldModel> make_field_model(const FieldModelConfig& config);

}  // namespace qpinn::core
