// Inverse quantum problems: identify potential parameters from observed
// wavefunction data.
//
// Given noisy samples of psi(x, t) (e.g. produced by the Crank-Nicolson
// solver from the TRUE potential), a PINN is trained with
//
//   L = L_data (match the samples) + L_pde (Schrödinger residual with the
//       PARAMETRIZED potential) + L_ic
//
// where the potential parameters (here: the trap frequency omega of
// V = 1/2 omega^2 x^2) are trainable leaves updated alongside the network
// weights. Recovering omega from data is the canonical quantum inverse
// problem in the PINN literature.
//
// The solve is a SchrodingerProblem that owns the leaf and trains through
// the Trainer, so it captures, replays, shards and checkpoints like every
// forward problem.
#pragma once

#include <memory>

#include "core/field_model.hpp"
#include "core/trainer.hpp"

namespace qpinn::core {

struct InverseHarmonicConfig {
  Domain domain{-5.0, 5.0, 0.0, 1.0};
  /// Observed data: rows (x, t) and matching (Re psi, Im psi) targets.
  Tensor data_points;   ///< (N, 2)
  Tensor data_values;   ///< (N, 2)
  /// Initial guess for omega (the unknown to recover).
  double omega_guess = 0.5;
  /// Initial condition of the observed evolution (known experimentally).
  FieldOp initial;

  std::int64_t epochs = 1500;
  optim::AdamConfig adam{};
  double weight_data = 10.0;
  double weight_pde = 1.0;
  double weight_ic = 10.0;
  /// Point counts; the interior is always LHS, drawn from `seed`.
  SamplingConfig sampling{};
  std::uint64_t seed = 0;
  std::int64_t log_every = 0;

  void validate() const;
};

struct InverseResult {
  double omega = 0.0;            ///< recovered trap frequency
  double final_loss = 0.0;
  double data_loss = 0.0;        ///< final data misfit (0 if weight_data = 0)
  std::vector<double> omega_history;  ///< omega per epoch
  std::shared_ptr<FieldModel> model;
};

/// What solve_inverse_harmonic hands the Trainer. The problem owns one
/// trainable leaf, "w" (checkpointed as "problem.w"), with omega = w^2 to
/// keep the frequency positive; its potential is V = 1/2 omega^2 x^2, and
/// its aux terms are the soft IC ("ic") and the observation MSE ("data").
/// The interior is LHS-resampled every epoch and split into one shard per
/// global-pool thread.
struct InverseTraining {
  std::shared_ptr<Problem> problem;
  std::shared_ptr<FieldModel> model;
  TrainConfig train;
};
InverseTraining make_inverse_training(const InverseHarmonicConfig& config);

/// The current omega = w^2 of a problem built by make_inverse_training.
double inverse_omega(const Problem& problem);

/// Trains the joint (network, omega) system, one Trainer step per epoch,
/// and returns the recovered frequency.
InverseResult solve_inverse_harmonic(const InverseHarmonicConfig& config);

/// Convenience: builds (data_points, data_values) by sampling a
/// SpaceTimeField on a grid with optional Gaussian noise.
std::pair<Tensor, Tensor> make_observations(
    const quantum::SpaceTimeField& field, const Domain& domain,
    std::int64_t nx, std::int64_t nt, double noise_stddev, std::uint64_t seed);

}  // namespace qpinn::core
