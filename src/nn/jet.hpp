// Forward Taylor jets for PDE residual derivatives.
//
// A Jet carries a batch function's value together with its first
// derivatives, and pure second derivatives, along the input coordinates,
// propagated forward through each layer in one pass (Taylor-mode AD;
// Bettencourt, Johnson & Duvenaud 2019). Every rule is built from ordinary
// tape ops, so capture, replay, the plan passes and mixed demotion apply to
// a jet unchanged, and the parameter gradient of a jet residual is a single
// reverse sweep. Every module answers forward_jet: the layers
// carry their own rules, and Module's default (`jet_by_partial` below)
// differentiates any other module by reverse-mode `partial`
// (autodiff/derivatives.hpp). `partial` is otherwise the oracle jets are
// tested against, and the path for data with no parameters (a hard
// initial condition's psi0), through `partial_jet`.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "autodiff/variable.hpp"

namespace qpinn::nn {

class Module;

/// value (N, C) plus d1[k] = ∂value/∂x_k and d2[k] = ∂²value/∂x_k² for
/// every input coordinate k. order[k] in {0, 1, 2} is the highest order
/// carried along x_k. An undefined component is an exact zero (every rule
/// skips it); every defined component has the value's shape.
struct Jet {
  autodiff::Variable value;
  std::vector<autodiff::Variable> d1;
  std::vector<autodiff::Variable> d2;
  std::vector<int> order;

  std::size_t dims() const { return order.size(); }
  /// Columns [c0, c1) of every component.
  Jet slice_cols(std::int64_t c0, std::int64_t c1) const;
  /// Every component as a constant sharing its tensor (cuts the graphs).
  Jet detached() const;
};

/// The jet of a diagonal affine input map: `value` (N, D) is the network
/// input and ∂value/∂x_k is the constant direction column
/// scale[k] · e_k; all second derivatives vanish. `order` has D entries.
Jet input_jet(const autodiff::Variable& value, std::vector<int> order,
              const std::vector<double>& scale);

/// Applies a linear map to every component (value included): valid for
/// matmul by a constant-in-x weight, scale, and column slicing.
template <typename F>
Jet map_linear(const Jet& x, F&& f) {
  Jet y{f(x.value), std::vector<autodiff::Variable>(x.dims()),
        std::vector<autodiff::Variable>(x.dims()), x.order};
  for (std::size_t k = 0; k < x.dims(); ++k) {
    if (x.d1[k].defined()) y.d1[k] = f(x.d1[k]);
    if (x.d2[k].defined()) y.d2[k] = f(x.d2[k]);
  }
  return y;
}

/// Column-wise concatenation; an undefined component of one part becomes
/// zeros unless it is undefined in every part.
Jet concat_jets(const std::vector<Jet>& parts);

/// sin(a) and cos(a) of a jet, sharing one sin and one cos evaluation of
/// a.value between the value and derivative streams:
///   sin' = c·a_k,  sin'' = c·a_kk − s·a_k²,
///   cos' = −s·a_k, cos'' = −s·a_kk − c·a_k².
std::pair<Jet, Jet> sin_cos(const Jet& a);

/// Jet of the hard initial-condition transform psi0 + ramp · net, where
/// ramp = x_{t_dim} − t0 (so ∂ramp/∂x_{t_dim} = 1, all else 0) and psi0
/// does not depend on x_{t_dim}; t is carried to first order only. psi0
/// carries the same coordinates as net.
Jet hard_ic(const Jet& psi0, const autodiff::Variable& ramp, const Jet& net,
            std::size_t t_dim);

/// The jet of a one-channel y (N, 1) by reverse-mode `partial` against the
/// (N, D) input x it was computed from — the oracle jets are tested
/// against. A y with no grad path (a constant) has all-zero derivatives.
/// Throws outside grad mode.
Jet partial_jet(const autodiff::Variable& y, const autodiff::Variable& x,
                std::vector<int> order);

/// Module::forward_jet's default: the jet of module.forward(x.value) by
/// `partial_jet` on each output channel against a leaf copy of x.value,
/// chained through x's derivative columns. Exact for input jets, the only
/// ones it accepts (else ValueError): no component has a grad path, every
/// d2 is undefined, and each defined d1[k] is zero outside column k, so
/// y_k = d1[k](:, k) ⊙ ∂y/∂z_k and y_kk = d1[k](:, k)² ⊙ ∂²y/∂z_k² hold
/// with no mixed partials. Needs grad mode.
Jet jet_by_partial(Module& module, const Jet& x);

/// `v` when defined, else an all-zero constant of `shape`.
autodiff::Variable or_zeros(const autodiff::Variable& v, const Shape& shape);

}  // namespace qpinn::nn
