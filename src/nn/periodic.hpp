// Exact periodic-boundary embedding (Dong & Ni 2021).
//
// Input columns with a declared period L are replaced by the pair
// (sin(2*pi*x/L), cos(2*pi*x/L)); non-periodic columns pass through. Any
// network applied on top is then exactly L-periodic in those coordinates,
// removing the need for a soft boundary loss.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace qpinn::nn {

class PeriodicEmbedding : public Module {
 public:
  /// `periods[d] > 0` declares column d periodic with that period;
  /// `periods[d] == 0` passes the column through unchanged.
  explicit PeriodicEmbedding(std::vector<double> periods);

  autodiff::Variable forward(const autodiff::Variable& x) override;
  Jet forward_jet(const Jet& x) override;
  std::vector<autodiff::Variable> parameters() const override { return {}; }
  std::vector<std::pair<std::string, autodiff::Variable>> named_parameters()
      const override {
    return {};
  }
  std::int64_t input_dim() const override {
    return static_cast<std::int64_t>(periods_.size());
  }
  std::int64_t output_dim() const override { return out_dim_; }

  const std::vector<double>& periods() const { return periods_; }

 private:
  std::vector<double> periods_;
  std::int64_t out_dim_;
};

}  // namespace qpinn::nn
