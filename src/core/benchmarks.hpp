// The four quantum benchmark problems of the reproduction, each paired
// with a recommended field-model configuration.
//
// B1 free-packet TDSE      — analytic reference (Gaussian integral form)
// B2 HO coherent state     — analytic reference
// B3 infinite-well beat    — analytic eigen-expansion reference
// B4 NLS bright soliton    — analytic reference
// B5 NLS Raissi 2 sech(x)  — split-step Fourier reference (no closed form)
#pragma once

#include <memory>

#include "core/schrodinger_problem.hpp"
#include "core/trainer.hpp"

namespace qpinn::core {

struct BenchmarkOverrides {
  /// Norm-conservation loss weight (0 disables — ablation dimension F3).
  double weight_norm = 0.0;
  /// IC loss weight.
  double weight_ic = 10.0;
  /// Wall (Dirichlet) loss weight for non-periodic problems.
  double weight_bc = 10.0;
};

/// B1: free Gaussian packet, x in [-6, 6], t in [0, 1],
/// psi0 centered at x0 = -2 moving with k0 = 2, sigma0 = 0.5.
std::shared_ptr<SchrodingerProblem> make_free_packet_problem(
    const BenchmarkOverrides& overrides = {});

/// B2: harmonic-oscillator coherent state displaced to x0 = 1,
/// x in [-6, 6], t in [0, 2].
std::shared_ptr<SchrodingerProblem> make_ho_coherent_problem(
    const BenchmarkOverrides& overrides = {});

/// B3: infinite well [0, 1], equal superposition of n = 1, 2,
/// t in [0, 0.4] (about one beat period is 4/(3 pi) ~ 0.42).
std::shared_ptr<SchrodingerProblem> make_well_superposition_problem(
    const BenchmarkOverrides& overrides = {});

/// B4: NLS bright soliton a = 1, v = 1, x in [-5, 5] periodic,
/// t in [0, 1].
std::shared_ptr<SchrodingerProblem> make_nls_soliton_problem(
    const BenchmarkOverrides& overrides = {});

/// B5: the Raissi NLS benchmark psi0 = 2 sech x, x in [-5, 5] periodic,
/// t in [0, pi/2]; reference computed once by split-step Fourier
/// (nx = 256, ~2e3 steps) and bilinearly interpolated.
std::shared_ptr<SchrodingerProblem> make_nls_raissi_problem(
    const BenchmarkOverrides& overrides = {});

/// A model configuration adapted to the problem: periodic x-embedding for
/// periodic problems, input normalization to [-1,1]^2, RFF on.
FieldModelConfig default_model_config(const SchrodingerProblem& problem,
                                      std::uint64_t seed = 0);

/// Builds the standard model for a benchmark problem. `hard_ic` wires the
/// problem's own initial condition into the exact-IC transform (the
/// configuration that converges most reliably).
std::shared_ptr<FieldModel> make_model_for(const SchrodingerProblem& problem,
                                           std::uint64_t seed = 0,
                                           bool hard_ic = true);

/// The training recipe validated in this reproduction: Adam 2e-3 with
/// exponential decay, Latin-hypercube collocation resampled every epoch
/// (the key defense against residual overfitting), soft walls for
/// non-periodic problems.
TrainConfig default_train_config(std::int64_t epochs, std::uint64_t seed = 0);

}  // namespace qpinn::core
