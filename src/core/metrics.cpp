#include "core/metrics.hpp"

#include <cmath>

#include "util/error.hpp"

namespace qpinn::core {

Tensor sample_reference(const quantum::SpaceTimeField& reference,
                        const Tensor& X) {
  QPINN_CHECK(static_cast<bool>(reference), "reference field is unset");
  QPINN_CHECK_SHAPE(X.rank() == 2 && X.cols() == 2,
                    "sample_reference expects (N, 2) points");
  const std::int64_t n = X.rows();
  Tensor out(Shape{n, 2});
  const double* px = X.data();
  double* po = out.data();
  for (std::int64_t r = 0; r < n; ++r) {
    const quantum::Complex value = reference(px[2 * r], px[2 * r + 1]);
    po[2 * r] = value.real();
    po[2 * r + 1] = value.imag();
  }
  return out;
}

namespace {
Tensor evaluation_grid(const Domain& domain, std::int64_t nx,
                       std::int64_t nt) {
  return grid_points(domain, nx, nt, /*skip_initial_slice=*/false);
}
}  // namespace

double relative_l2(FieldModel& model, const quantum::SpaceTimeField& reference,
                   const Domain& domain, std::int64_t nx, std::int64_t nt) {
  const Tensor X = evaluation_grid(domain, nx, nt);
  const Tensor pred = model.evaluate(X);
  const Tensor ref = sample_reference(reference, X);
  double num = 0.0, den = 0.0;
  const double* pp = pred.data();
  const double* pr = ref.data();
  const std::int64_t n = pred.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double diff = pp[i] - pr[i];
    num += diff * diff;
    den += pr[i] * pr[i];
  }
  QPINN_CHECK(den > 0.0, "relative_l2: reference is identically zero");
  return std::sqrt(num / den);
}

double max_abs_error(FieldModel& model,
                     const quantum::SpaceTimeField& reference,
                     const Domain& domain, std::int64_t nx, std::int64_t nt) {
  const Tensor X = evaluation_grid(domain, nx, nt);
  const Tensor pred = model.evaluate(X);
  const Tensor ref = sample_reference(reference, X);
  double max_err = 0.0;
  const double* pp = pred.data();
  const double* pr = ref.data();
  for (std::int64_t r = 0; r < pred.rows(); ++r) {
    const double du = pp[2 * r] - pr[2 * r];
    const double dv = pp[2 * r + 1] - pr[2 * r + 1];
    max_err = std::max(max_err, std::sqrt(du * du + dv * dv));
  }
  return max_err;
}

std::vector<double> norm_series(FieldModel& model, const Domain& domain,
                                std::int64_t nx,
                                const std::vector<double>& times) {
  QPINN_CHECK(nx >= 2, "norm_series needs nx >= 2");
  QPINN_CHECK(!times.empty(), "norm_series needs at least one time");
  const Tensor xs = Tensor::linspace(domain.x_lo, domain.x_hi, nx);
  const Tensor weights = trapezoid_weights(domain, nx);

  std::vector<double> series;
  series.reserve(times.size());
  Tensor X(Shape{nx, 2});
  for (double t : times) {
    double* p = X.data();
    for (std::int64_t i = 0; i < nx; ++i) {
      p[2 * i] = xs[i];
      p[2 * i + 1] = t;
    }
    const Tensor out = model.evaluate(X);
    const double* po = out.data();
    double acc = 0.0;
    for (std::int64_t i = 0; i < nx; ++i) {
      acc += weights[i] *
             (po[2 * i] * po[2 * i] + po[2 * i + 1] * po[2 * i + 1]);
    }
    series.push_back(acc);
  }
  return series;
}

double max_norm_drift(const std::vector<double>& series) {
  QPINN_CHECK(!series.empty(), "empty norm series");
  double drift = 0.0;
  for (double value : series) {
    drift = std::max(drift, std::abs(value - series.front()));
  }
  return drift;
}

}  // namespace qpinn::core
