// Learning-rate schedule.
#pragma once

#include <cstdint>

namespace qpinn::optim {

/// lr = base_lr * factor^(epoch / every), with integer division: the "decay
/// by 0.85 every 2000 epochs" step schedule standard in PINN work. factor =
/// 1 is the constant rate (pow(1, k) is exactly 1, so lr == base_lr).
/// Throws ValueError unless factor is in (0, 1] and every >= 1.
double decayed_lr(double base_lr, double factor, std::int64_t every,
                  std::int64_t epoch);

}  // namespace qpinn::optim
