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
// psi = (x - a)(b - x) * NN(x).
#pragma once

#include <memory>
#include <vector>

#include "core/field_ops.hpp"
#include "nn/mlp.hpp"
#include "optim/adam.hpp"

namespace qpinn::core {

struct EigenPinnConfig {
  double x_lo = 0.0;
  double x_hi = 1.0;
  std::int64_t n_collocation = 128;
  PotentialOp potential;  ///< null = 0 (pure box)

  std::vector<std::int64_t> hidden = {32, 32, 32};
  nn::Activation activation = nn::Activation::kTanh;
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

/// The Dirichlet envelope model psi = 4 (x - a)(b - x) / (b - a)^2 * NN(x)
/// and psi_xx at a column x (N, 1), from one forward jet of `net` (product
/// rule psi'' = e NN'' + 2 e' NN' + e'' NN).
std::pair<autodiff::Variable, autodiff::Variable> envelope_field(
    nn::Module& net, const autodiff::Variable& x, double a, double b);

class EigenPinn {
 public:
  explicit EigenPinn(EigenPinnConfig config);

  /// Trains one state with the given energy initialization, orthogonal to
  /// `lower_states`.
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
