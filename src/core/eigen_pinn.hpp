// Eigenvalue PINN for the time-independent Schrödinger equation
// (Jin, Mattheakis & Protopapas style):
//
//   H psi = E psi,  H = -1/2 d2/dx2 + V(x),  Dirichlet walls,
//
// with E a trainable scalar. The loss combines the eigen-residual MSE,
// a normalization penalty (integral psi^2 dx = 1), and orthogonality
// penalties against previously found states (spectral deflation), so the
// spectrum is recovered state by state from the ground state up.
// Dirichlet boundary conditions are enforced exactly by the envelope
// psi = (x - a)(b - x) * NN(x): a stationary FieldModel.
//
// Each state trains through the Trainer on a t-less Domain, so it
// captures, replays, shards and demotes like every other problem.
#pragma once

#include <memory>
#include <vector>

#include "core/field_ops.hpp"
#include "core/trainer.hpp"

namespace qpinn::core {

struct EigenPinnConfig {
  double x_lo = 0.0;
  double x_hi = 1.0;
  std::int64_t n_collocation = 128;
  PotentialOp potential;  ///< null = 0 (pure box)

  std::vector<std::int64_t> hidden = {32, 32, 32};
  std::uint64_t seed = 0;

  std::int64_t epochs = 4000;
  optim::AdamConfig adam{};  ///< adam.lr defaults to 1e-3

  double weight_residual = 1.0;
  double weight_norm = 10.0;
  double weight_ortho = 10.0;
  /// Penalty (E - E_guess)^2 weight during an initial window; anchors the
  /// search near the requested part of the spectrum, then is released.
  double weight_energy_anchor = 1.0;
  std::int64_t anchor_epochs = 500;

  std::int64_t log_every = 0;

  void validate() const;
};

struct EigenState {
  double energy = 0.0;
  std::vector<double> x;    ///< collocation grid
  std::vector<double> psi;  ///< normalized, sign-fixed wavefunction
  double residual_loss = 0.0;
};

/// What solve_state hands the Trainer: residual -1/2 phi_xx + V phi - E phi
/// on the x-linspace of a t-less Domain (one shard per global-pool thread),
/// with E a problem leaf ("problem.E"). Its aux terms, on the same grid,
/// are the norm, one overlap^2 per lower state and the energy anchor.
struct EigenTraining {
  std::shared_ptr<Problem> problem;
  std::shared_ptr<FieldModel> model;
  TrainConfig train;
  /// The anchor's (1, 1) weight, a plan input: eigen_step zeroes it in
  /// place from anchor_epochs on, so a captured plan stays valid.
  Tensor anchor_weight;
  std::int64_t anchor_epochs = 0;
};
/// Throws ValueError when a lower state was sampled on another grid.
EigenTraining make_eigen_training(const EigenPinnConfig& config,
                                  double energy_guess,
                                  const std::vector<EigenState>& lower_states);

/// One epoch of solve_state: releases the anchor at anchor_epochs, then
/// runs Trainer::step.
EpochRecord eigen_step(Trainer& trainer, const EigenTraining& setup,
                       std::int64_t epoch);

class EigenPinn {
 public:
  explicit EigenPinn(EigenPinnConfig config);

  /// Trains one state with the given energy initialization, orthogonal to
  /// `lower_states` (which must share this solver's grid).
  EigenState solve_state(double energy_guess,
                         const std::vector<EigenState>& lower_states) const;

  /// Recovers the k lowest states using the provided energy guesses
  /// (guesses.size() == k). Guesses typically come from WKB estimates or a
  /// coarse Numerov sweep.
  std::vector<EigenState> solve_spectrum(
      const std::vector<double>& energy_guesses) const;

  const EigenPinnConfig& config() const { return config_; }

 private:
  EigenPinnConfig config_;
};

}  // namespace qpinn::core
