// Base interface for all trainable components.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/variable.hpp"
#include "nn/jet.hpp"

namespace qpinn::nn {

/// A trainable component mapping a batch Variable to a batch Variable.
/// Parameters are autodiff leaves shared (by node) between the module and
/// the optimizer, so in-place updates through mutable_value() are seen by
/// subsequent forward passes.
class Module {
 public:
  virtual ~Module() = default;

  /// Builds the forward graph for a batch x of shape (N, in_dim).
  virtual autodiff::Variable forward(const autodiff::Variable& x) = 0;

  /// All trainable leaves, in a stable order.
  virtual std::vector<autodiff::Variable> parameters() const = 0;

  /// Stable (name, leaf) pairs, used for checkpoints and diagnostics.
  virtual std::vector<std::pair<std::string, autodiff::Variable>>
  named_parameters() const = 0;

  /// Propagates a forward jet (nn/jet.hpp) of the input batch; the value
  /// stream equals forward(x.value) bit for bit. This default is
  /// nn::jet_by_partial (reverse-mode `partial`), exact for input jets;
  /// modules with a rule of their own override it.
  virtual Jet forward_jet(const Jet& x) { return jet_by_partial(*this, x); }

  virtual std::int64_t input_dim() const = 0;
  virtual std::int64_t output_dim() const = 0;

  /// Total trainable scalar count.
  std::int64_t num_parameters() const {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.numel();
    return n;
  }
};

}  // namespace qpinn::nn
