#include "nn/mlp.hpp"

#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;

void MlpConfig::validate() const {
  if (in_dim <= 0 || out_dim <= 0) {
    throw ConfigError("MlpConfig: in_dim and out_dim must be positive");
  }
  if (hidden.empty()) {
    throw ConfigError("MlpConfig: at least one hidden layer is required");
  }
  for (std::int64_t h : hidden) {
    if (h <= 0) throw ConfigError("MlpConfig: hidden widths must be positive");
  }
  if (!periods.empty() &&
      static_cast<std::int64_t>(periods.size()) != in_dim) {
    throw ConfigError("MlpConfig: periods must have in_dim entries or be empty");
  }
  if (fourier) {
    if (fourier->num_features <= 0) {
      throw ConfigError("MlpConfig: fourier.num_features must be positive");
    }
    if (fourier->sigma <= 0.0) {
      throw ConfigError("MlpConfig: fourier.sigma must be positive");
    }
  }
}

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  config_.validate();
  Rng rng(config_.seed);

  std::int64_t width = config_.in_dim;
  if (!config_.periods.empty()) {
    periodic_ = std::make_unique<PeriodicEmbedding>(config_.periods);
    width = periodic_->output_dim();
  }
  if (config_.fourier) {
    fourier_ = std::make_unique<RandomFourierFeatures>(
        width, config_.fourier->num_features, config_.fourier->sigma, rng);
    width = fourier_->output_dim();
  }
  for (std::int64_t h : config_.hidden) {
    layers_.push_back(std::make_unique<Linear>(width, h, rng, config_.init));
    width = h;
  }
  layers_.push_back(
      std::make_unique<Linear>(width, config_.out_dim, rng, config_.init));
}

Variable Mlp::forward(const Variable& x) {
  Variable h = x;
  if (periodic_) h = periodic_->forward(h);
  if (fourier_) h = fourier_->forward(h);
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = layers_[i]->forward_act(h, config_.activation);
  }
  return layers_.back()->forward(h);  // linear output head
}

Jet Mlp::forward_jet(const Jet& x) {
  Jet h = x;
  if (periodic_) h = periodic_->forward_jet(h);
  if (fourier_) h = fourier_->forward_jet(h);
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = layers_[i]->forward_act_jet(h, config_.activation);
  }
  return layers_.back()->forward_jet(h);
}

std::vector<Variable> Mlp::parameters() const {
  std::vector<Variable> params;
  for (const auto& layer : layers_) {
    for (const auto& p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::pair<std::string, Variable>> Mlp::named_parameters() const {
  std::vector<std::pair<std::string, Variable>> params;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (const auto& [name, p] : layers_[i]->named_parameters()) {
      params.emplace_back("layer" + std::to_string(i) + "." + name, p);
    }
  }
  return params;
}

}  // namespace qpinn::nn
