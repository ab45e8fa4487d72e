// 2+1-dimensional time-dependent Schrödinger equation — the
// "scale to higher dimensions" extension:
//
//   i psi_t = -1/2 (psi_xx + psi_yy) + V(x, y) psi,   hbar = m = 1.
//
// The solver is a facade over the 1+1-D pipeline: a FieldModel with two
// space axes (hard IC, input normalization), the SchrodingerProblem
// residual, and the Trainer, so it captures, replays, shards and
// checkpoints like the 1+1-D problems. The benchmark solution is the
// separable free Gaussian packet psi(x,t) * psi(y,t), exact because the
// free 2-D Hamiltonian separates.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/trainer.hpp"
#include "quantum/analytic.hpp"
#include "util/rng.hpp"

namespace qpinn::core {

/// Rectangular (x, y) x time domain.
struct Domain2d {
  double x_lo = -1.0, x_hi = 1.0;
  double y_lo = -1.0, y_hi = 1.0;
  double t_lo = 0.0, t_hi = 1.0;
  void validate() const;
};

/// psi(x, y, t).
using SpaceTimeField2d = std::function<quantum::Complex(double, double, double)>;

/// The exact separable free packet: product of two 1-D packets.
SpaceTimeField2d free_gaussian_packet_2d(double x0, double kx, double sigma_x,
                                         double y0, double ky, double sigma_y);

/// Differentiable 2-D initial condition: (u0, v0) built from column
/// Variables of x and y. Must be op-expressible because the hard-IC
/// transform differentiates psi0 with respect to x and y inside the PDE
/// residual.
using FieldOp2d = std::function<std::pair<autodiff::Variable, autodiff::Variable>(
    const autodiff::Variable& x, const autodiff::Variable& y)>;

/// psi0 of the separable Gaussian packet as ops.
FieldOp2d gaussian_packet_2d_ic(double x0, double kx, double sigma_x,
                                double y0, double ky, double sigma_y);

struct Tdse2dConfig {
  Domain2d domain;
  /// V(x, y) as a plain callable used to build per-batch constant columns
  /// (potentials without trainable parts need no graph). Training calls it
  /// from every shard task at once, so it must be thread-safe.
  std::function<double(double, double)> potential;  ///< null = free
  /// Exact reference for metrics (required).
  SpaceTimeField2d reference;
  /// Initial condition as differentiable ops (required; enforced exactly
  /// by the hard-IC ramp psi = psi0 + (t - t_lo) NN, which is what made
  /// the 1-D benchmarks converge).
  FieldOp2d initial;

  std::vector<std::int64_t> hidden = {48, 48, 48};
  nn::Activation activation = nn::Activation::kTanh;
  std::optional<nn::FourierConfig> fourier = nn::FourierConfig{24, 1.0};
  std::uint64_t seed = 0;

  std::int64_t epochs = 1000;
  double lr = 2e-3;
  double lr_decay = 0.9;
  std::int64_t lr_decay_every = 500;
  std::int64_t n_interior = 1024;  ///< fresh LHS points per epoch
  std::int64_t log_every = 0;

  void validate() const;
};

struct Tdse2dResult {
  double final_loss = 0.0;
  double final_l2 = 0.0;  ///< relative L2 on an evaluation grid
  double seconds = 0.0;
  std::vector<double> loss_history;
};

/// What Tdse2dSolver hands the Trainer: a linear SchrodingerProblem on the
/// (x, y, t) domain, whose residual with this model is
///   r1 = -v_t + 1/2 (u_xx + u_yy) - V u,  r2 = u_t + 1/2 (v_xx + v_yy) - V v
/// and which has no aux terms or reference; a FieldModel over (x, y, t)
/// with the hard IC and input normalization; and a TrainConfig with LHS
/// interior points resampled every epoch, no initial or wall points, and
/// one shard per global-pool thread.
struct Tdse2dTraining {
  std::shared_ptr<Problem> problem;
  std::shared_ptr<FieldModel> model;
  TrainConfig train;
};
Tdse2dTraining make_tdse2d_training(const Tdse2dConfig& config);

class Tdse2dSolver {
 public:
  explicit Tdse2dSolver(Tdse2dConfig config);

  /// Trains, one Trainer step per epoch, and reports the final metric.
  Tdse2dResult fit();

  /// (N, 2) prediction (Re, Im) for (x, y, t) rows.
  Tensor evaluate(const Tensor& points);

  /// Relative L2 against the reference on an nx x ny x nt grid.
  double relative_l2(std::int64_t nx, std::int64_t ny, std::int64_t nt);

  /// The PDE residual matrix (N, 2) at given points (exposed for tests:
  /// an exact solution must yield ~0).
  Tensor residual_at(const Tensor& points);

 private:
  Tdse2dConfig config_;
  Tdse2dTraining setup_;
};

/// n Latin-hypercube samples of (x, y, t) in the domain.
Tensor latin_hypercube_points_2d(const Domain2d& domain, std::int64_t n,
                                 Rng& rng);

}  // namespace qpinn::core
