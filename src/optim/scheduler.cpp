#include "optim/scheduler.hpp"

#include <cmath>

#include "util/error.hpp"

namespace qpinn::optim {

double decayed_lr(double base_lr, double factor, std::int64_t every,
                  std::int64_t epoch) {
  QPINN_CHECK(factor > 0.0 && factor <= 1.0, "decay factor must be in (0, 1]");
  QPINN_CHECK(every >= 1, "decay interval must be >= 1");
  return base_lr * std::pow(factor, static_cast<double>(epoch / every));
}

}  // namespace qpinn::optim
