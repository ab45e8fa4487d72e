// The (non)linear Schrödinger problem family (hbar = m = 1):
//
//   i psi_t = -1/2 psi_xx + V(x) psi + g |psi|^2 psi
//
// g = 0 is the linear TDSE; g = -1 the focusing NLS benchmark. With
// psi = u + i v the real residual system driven to zero is
//
//   r1 = -v_t + 1/2 u_xx - (V + g (u^2+v^2)) u
//   r2 =  u_t + 1/2 v_xx - (V + g (u^2+v^2)) v
//
// On a domain with a y axis, u_xx is the Laplacian u_xx + u_yy
// (FieldDerivatives) and V a function of (x, y): the 2+1-D TDSE.
#pragma once

#include "core/problem.hpp"

namespace qpinn::core {

class SchrodingerProblem : public Problem {
 public:
  struct Config {
    std::string name = "tdse";
    Domain domain;
    /// V as a differentiable op on the (N, S) space block; null: V = 0.
    PotentialOp potential;
    /// g in the cubic term.
    double nonlinearity = 0.0;
    /// psi(x, t_lo) as a differentiable op (required unless the model has
    /// a hard IC, but keep it set: it also seeds the IC loss and norm
    /// target checks).
    FieldOp initial;
    /// Ground truth for metrics (optional: an inverse problem has none).
    quantum::SpaceTimeField reference_field;
    bool periodic_x = false;
    /// Auxiliary loss weights; 0 disables a term.
    double weight_ic = 10.0;
    double weight_bc = 10.0;   ///< soft Dirichlet walls (ignored if periodic)
    double weight_norm = 0.0;  ///< global norm-conservation penalty
    /// Norm-conservation quadrature: nx points per slice, nt slices.
    std::int64_t norm_quad_nx = 64;
    std::int64_t norm_quad_nt = 8;
    /// Target value of the conserved integral |psi|^2 dx.
    double norm_target = 1.0;

    void validate() const;
  };

  explicit SchrodingerProblem(Config config);

  std::string name() const override { return config_.name; }
  Domain domain() const override { return config_.domain; }
  autodiff::Variable residual(FieldModel& model,
                              const autodiff::Variable& X) const override;
  std::int64_t residual_dim() const override { return 2; }
  std::vector<LossTerm> auxiliary_losses(
      FieldModel& model, const CollocationSet& points) const override;
  quantum::SpaceTimeField reference() const override {
    return config_.reference_field;
  }
  bool periodic_x() const override { return config_.periodic_x; }

  const Config& config() const { return config_; }

  /// The norm-conservation penalty alone (exposed for the F3 experiment).
  autodiff::Variable norm_conservation_loss(FieldModel& model) const;

 private:
  Config config_;
};

}  // namespace qpinn::core
