// Optimizer state and gradient-norm helpers shared by Adam, the trainer
// and the checkpoint.
#pragma once

#include <vector>

#include "autodiff/variable.hpp"

namespace qpinn::optim {

/// Snapshot of an optimizer's mutable state in a backend-agnostic layout:
/// per-parameter buffers (moments, velocities, ...) in `slots`, ordered
/// buffer-major (all of buffer 0 across parameters, then all of buffer 1),
/// plus a step counter and optimizer-specific scalars. Produced by
/// export_state(), consumed by import_state(), serialized verbatim by
/// core::Checkpointer — so checkpoint/rollback code never needs to know
/// which optimizer it is saving.
struct OptimizerState {
  std::int64_t step_count = 0;
  std::vector<double> scalars;
  std::vector<Tensor> slots;  ///< deep copies, detached from the optimizer
};

/// Global L2 norm of `grads`: the per-tensor squared norms summed in order.
double grad_norm(const std::vector<Tensor>& grads);

/// Scales `grads` in place so their global L2 norm is at most `max_norm`;
/// returns the pre-clip norm.
double clip_grad_norm(std::vector<Tensor>& grads, double max_norm);

}  // namespace qpinn::optim
