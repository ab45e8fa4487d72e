// The PINN problem abstraction.
//
// A Problem owns the physics: it turns a model and collocation points into
// residual matrices and auxiliary loss terms, and provides the reference
// solution the trained model is scored against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/field_model.hpp"
#include "quantum/analytic.hpp"

namespace qpinn::core {

/// One named, weighted scalar contribution to the total loss.
struct LossTerm {
  std::string name;
  double weight = 1.0;
  autodiff::Variable value;  ///< scalar Variable
};

class Problem {
 public:
  virtual ~Problem() = default;

  virtual std::string name() const = 0;
  virtual Domain domain() const = 0;

  /// PDE residual matrix (N, R) at interior points X (a leaf of (x, [y],
  /// [t]) rows with requires_grad). Each column is one scalar residual
  /// equation; training drives all entries to zero. Rows stay aligned with
  /// X's rows so the trainer can apply per-point (curriculum) weights.
  virtual autodiff::Variable residual(FieldModel& model,
                                      const autodiff::Variable& X) const = 0;

  /// Number of residual columns.
  virtual std::int64_t residual_dim() const = 0;

  /// Auxiliary losses (IC, BC, norm conservation, ...) for the collocation
  /// set. Default weights are baked in here; the trainer can rescale by
  /// name.
  virtual std::vector<LossTerm> auxiliary_losses(
      FieldModel& model, const CollocationSet& points) const = 0;

  /// Ground truth psi(x, t) for metrics; null (the default) when the
  /// problem has none (the trainer's relative L2 then reads NaN).
  virtual quantum::SpaceTimeField reference() const { return {}; }

  /// Trainable leaves the problem owns besides the model's (e.g. a
  /// potential parameter of an inverse problem). The trainer optimizes,
  /// snapshots, all-reduces and checkpoints them with the model's
  /// parameters, under a "problem." name prefix.
  virtual std::vector<std::pair<std::string, autodiff::Variable>>
  named_parameters() const {
    return {};
  }

  /// Whether the model should use exact x-periodicity (informs model
  /// construction; periodic problems need no wall loss).
  virtual bool periodic_x() const { return false; }
};

}  // namespace qpinn::core
