// PDE derivative helpers on batched network outputs.
//
// PINN convention: the network maps a batch X of shape (N, D) — one
// collocation point per row — to outputs of shape (N, C). Because each
// output row depends only on its own input row, grad(sum(y), X) recovers
// per-point derivatives, and slicing column `dim` yields d y / d x_dim at
// every collocation point. Repeating with create_graph gives u_xx etc.
// Backbones with a forward jet (nn/jet.hpp) get these derivatives in one
// forward pass instead; `partial` stays the path for everything else and
// the oracle the jets are tested against.
#pragma once

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"

namespace qpinn::autodiff {

/// d y / d x_dim as an (N, 1) Variable. `y` must be (N, 1) (one channel);
/// `x` the (N, D) input leaf it was computed from. The result carries a
/// graph (create_graph=true) so it can be differentiated again or used
/// inside a loss.
Variable partial(const Variable& y, const Variable& x, std::int64_t dim);

/// Repeated partial: order-th derivative along `dim` (order >= 1).
Variable partial_n(const Variable& y, const Variable& x, std::int64_t dim,
                   int order);

/// Mixed second derivative d^2 y / (d x_i d x_j).
Variable partial_mixed(const Variable& y, const Variable& x, std::int64_t i,
                       std::int64_t j);

}  // namespace qpinn::autodiff
