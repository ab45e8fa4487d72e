// The PINN backbone: optional periodic embedding -> optional random
// Fourier features -> fully connected stack.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "nn/activation.hpp"
#include "nn/fourier.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/periodic.hpp"

namespace qpinn::nn {

struct FourierConfig {
  std::int64_t num_features = 64;
  double sigma = 1.0;
};

struct MlpConfig {
  std::int64_t in_dim = 2;
  std::int64_t out_dim = 2;
  std::vector<std::int64_t> hidden = {64, 64, 64, 64};
  Activation activation = Activation::kTanh;
  Init init = Init::kXavierUniform;
  /// Optional RFF embedding applied after the periodic embedding.
  std::optional<FourierConfig> fourier;
  /// Per-input-dim periods (empty = no periodic embedding; otherwise must
  /// have in_dim entries, 0 meaning pass-through).
  std::vector<double> periods;
  std::uint64_t seed = 0;

  /// Throws ConfigError when inconsistent.
  void validate() const;
};

class Mlp : public Module {
 public:
  explicit Mlp(const MlpConfig& config);

  autodiff::Variable forward(const autodiff::Variable& x) override;
  Jet forward_jet(const Jet& x) override;
  std::vector<autodiff::Variable> parameters() const override;
  std::vector<std::pair<std::string, autodiff::Variable>> named_parameters()
      const override;
  std::int64_t input_dim() const override { return config_.in_dim; }
  std::int64_t output_dim() const override { return config_.out_dim; }

  const MlpConfig& config() const { return config_; }
  std::size_t num_layers() const { return layers_.size(); }

 private:
  MlpConfig config_;
  std::unique_ptr<PeriodicEmbedding> periodic_;     // may be null
  std::unique_ptr<RandomFourierFeatures> fourier_;  // may be null
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace qpinn::nn
