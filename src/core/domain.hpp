// Space-time domain and collocation sampling for PINN problems in one or
// two space dimensions.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace qpinn::core {

/// Rectangular space-time domain [x_lo, x_hi] x [t_lo, t_hi], with an
/// optional y axis [y_lo, y_hi] that exists when y_hi > y_lo. The t axis
/// exists when t_hi > t_lo; a domain with t_hi == t_lo is stationary.
/// Points are rows (x, [y], [t]).
struct Domain {
  double x_lo = -1.0;
  double x_hi = 1.0;
  double t_lo = 0.0;
  double t_hi = 1.0;
  double y_lo = 0.0;
  double y_hi = 0.0;

  double x_span() const { return x_hi - x_lo; }
  double t_span() const { return t_hi - t_lo; }
  bool has_y() const { return y_hi > y_lo; }
  bool has_t() const { return t_hi > t_lo; }
  void validate() const;  ///< throws ConfigError when degenerate
  /// Throws ConfigError unless the points are (x, t) rows: `what` needs a
  /// t axis and no y axis.
  void require_xt(const std::string& what) const;
};

enum class SamplerKind {
  kGrid,            ///< tensor-product nx x nt grid
  kUniformRandom,   ///< i.i.d. uniform points
  kLatinHypercube,  ///< stratified in both coordinates
};

SamplerKind parse_sampler(const std::string& name);
std::string to_string(SamplerKind kind);

/// (nx * nt, 2) tensor of (x, t) rows on a tensor-product grid. Interior
/// excludes t = t_lo slice when `skip_initial_slice` (those points belong
/// to the IC loss). On a stationary (x) domain: the (nx, 1) x-linspace.
Tensor grid_points(const Domain& domain, std::int64_t nx, std::int64_t nt,
                   bool skip_initial_slice = false);

/// n i.i.d. uniform (x, [y], t) points in the domain.
Tensor uniform_points(const Domain& domain, std::int64_t n, Rng& rng);

/// n Latin-hypercube (x, [y], t) points (one per stratum in each
/// coordinate): one permutation per axis, then each row's strata.
Tensor latin_hypercube_points(const Domain& domain, std::int64_t n, Rng& rng);

/// (nx, 2) points on the initial slice t = t_lo.
Tensor initial_points(const Domain& domain, std::int64_t nx);

/// (2 * nt, 2) points on the two spatial walls (x_lo rows first).
Tensor boundary_points(const Domain& domain, std::int64_t nt);

/// (nx, 1) trapezoid weights over the nx-point x-linspace: dx at interior
/// points, dx / 2 at the walls.
Tensor trapezoid_weights(const Domain& domain, std::int64_t nx);

/// The collocation sets a training run works with. With a y axis or no t
/// axis the interior is the only one (initial and wall points are (x, t)).
struct CollocationSet {
  Tensor interior;  ///< (N, S + [1]) PDE residual points
  Tensor initial;   ///< (Ni, 2) initial-condition points (may be empty)
  Tensor boundary;  ///< (Nb, 2) wall points (may be empty for periodic)
};

struct SamplingConfig {
  SamplerKind kind = SamplerKind::kGrid;
  std::int64_t n_interior_x = 32;  ///< grid: points per axis; random: total
  std::int64_t n_interior_t = 32;
  std::int64_t n_initial = 64;   ///< 0 disables initial points
  std::int64_t n_boundary = 0;  ///< 0 disables wall points
  std::uint64_t seed = 0;
};

CollocationSet make_collocation(const Domain& domain,
                                const SamplingConfig& config);

}  // namespace qpinn::core
