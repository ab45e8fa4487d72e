// Adaptive temporal weighting (time-domain curriculum).
//
// Collocation points are grouped into M time bins; later bins start with a
// small residual weight that ramps to 1 as training progresses, so the
// network resolves early-time dynamics first and propagates the solution
// forward in a causality-respecting manner (Wang, Sankaran & Perdikaris
// 2024 style).
#pragma once

#include <cstdint>
#include <vector>

#include "core/domain.hpp"

namespace qpinn::core {

struct CurriculumConfig {
  std::int64_t bins = 5;
  /// Epoch by which every bin reaches full weight.
  std::int64_t warmup_epochs = 1000;
  /// Weight a bin starts from before its ramp begins.
  double min_weight = 1e-2;

  void validate() const;
};

/// Per-bin weights at `epoch`: bin m stays at min_weight until its start
/// epoch m/M * warmup, ramps linearly to 1 over one bin interval, then
/// stays at 1. Bin 0 is always 1.
std::vector<double> curriculum_weights(const CurriculumConfig& config,
                                       std::int64_t epoch);

/// (N, 1) per-point weights for collocation rows X (columns x, t): each
/// point gets its time bin's weight. Throws ConfigError on a domain with a
/// y axis.
Tensor per_point_weights(const CurriculumConfig& config,
                         const Domain& domain, const Tensor& X,
                         std::int64_t epoch);

}  // namespace qpinn::core
