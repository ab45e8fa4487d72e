// Adam (Kingma & Ba 2014).
//
// Adam is the optimizer used for all PINN trainings in this reproduction
// (lr 1e-3 with exponential decay, as is standard for PINNs). qpinn uses a
// functional gradient API: the trainer computes gradients via
// autodiff::grad and hands plain tensors to the optimizer, which updates
// the parameter leaves in place.
#pragma once

#include "optim/optimizer.hpp"

namespace qpinn::optim {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

class Adam {
 public:
  Adam(std::vector<autodiff::Variable> params, const AdamConfig& config);

  /// Applies one update; grads[i] must match params[i] in shape. Throws
  /// NumericsError if any gradient is non-finite.
  void step(const std::vector<Tensor>& grads);

  double lr() const { return lr_; }
  void set_lr(double lr);

  const std::vector<autodiff::Variable>& params() const { return params_; }
  std::int64_t step_count() const { return step_count_; }

  /// Deep-copies the mutable state (for in-memory rollback snapshots and
  /// on-disk checkpoints). Slots layout: [m_0..m_{n-1}, v_0..v_{n-1}].
  /// Moment buffers are allocated (zeroed) at construction, so the export
  /// is never empty and the first step allocates nothing.
  OptimizerState export_state() const;

  /// Restores a state produced by export_state() on an optimizer with the
  /// same parameter shapes (empty slots zero the moments); throws
  /// ValueError/ShapeError on mismatch.
  void import_state(const OptimizerState& state);

 private:
  /// Allocates zeroed moment buffers.
  void zero_state();

  std::vector<autodiff::Variable> params_;
  double lr_;
  AdamConfig config_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t step_count_ = 0;
};

}  // namespace qpinn::optim
