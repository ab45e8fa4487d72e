// Base interface for all trainable components.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/variable.hpp"
#include "nn/jet.hpp"
#include "util/error.hpp"

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

  /// True when forward_jet has a rule for this module's configuration.
  /// Callers needing input derivatives use the jet when it does and
  /// reverse-mode `partial` (nn::partial_jet) when it does not.
  virtual bool has_jet() const { return false; }

  /// Propagates a forward jet (nn/jet.hpp) of the input batch; the value
  /// stream equals forward(x.value) bit for bit.
  virtual Jet forward_jet(const Jet& /*x*/) {
    throw ValueError("forward_jet: module has no jet rule");
  }

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
