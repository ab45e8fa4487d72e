#include "optim/optimizer.hpp"

#include <cmath>

#include "tensor/kernels.hpp"
#include "util/error.hpp"

namespace qpinn::optim {

double grad_norm(const std::vector<Tensor>& grads) {
  double sq = 0.0;
  for (const Tensor& g : grads) sq += kernels::dot(g, g);
  return std::sqrt(sq);
}

double clip_grad_norm(std::vector<Tensor>& grads, double max_norm) {
  QPINN_CHECK(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
  const double norm = grad_norm(grads);
  if (norm > max_norm) {
    const double factor = max_norm / norm;
    for (Tensor& g : grads) kernels::scale_inplace(g, factor);
  }
  return norm;
}

}  // namespace qpinn::optim
