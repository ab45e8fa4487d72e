#include "core/domain.hpp"

#include <utility>

#include "util/error.hpp"

namespace qpinn::core {

void Domain::validate() const {
  if (!(x_hi > x_lo) || !(t_hi >= t_lo) || !(y_hi >= y_lo)) {
    throw ConfigError(
        "Domain must satisfy x_hi > x_lo, t_hi >= t_lo and y_hi >= y_lo");
  }
}

void Domain::require_xt(const std::string& what) const {
  if (has_y() || !has_t()) {
    throw ConfigError(what + " needs an (x, t) domain; this one has " +
                      (has_y() ? "a y axis" : "no t axis"));
  }
}

namespace {

/// (lo, hi) of each point column: x, [y], [t].
std::vector<std::pair<double, double>> axes(const Domain& d) {
  std::vector<std::pair<double, double>> cols{{d.x_lo, d.x_hi}};
  if (d.has_y()) cols.emplace_back(d.y_lo, d.y_hi);
  if (d.has_t()) cols.emplace_back(d.t_lo, d.t_hi);
  return cols;
}

}  // namespace

SamplerKind parse_sampler(const std::string& name) {
  if (name == "grid") return SamplerKind::kGrid;
  if (name == "uniform") return SamplerKind::kUniformRandom;
  if (name == "lhs" || name == "latin") return SamplerKind::kLatinHypercube;
  throw ValueError("unknown sampler '" + name + "'");
}

std::string to_string(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kGrid: return "grid";
    case SamplerKind::kUniformRandom: return "uniform";
    case SamplerKind::kLatinHypercube: return "lhs";
  }
  throw ValueError("invalid SamplerKind");
}

Tensor grid_points(const Domain& domain, std::int64_t nx, std::int64_t nt,
                   bool skip_initial_slice) {
  domain.validate();
  if (!domain.has_t() && !domain.has_y()) {
    return Tensor::linspace(domain.x_lo, domain.x_hi, nx).reshape({nx, 1});
  }
  domain.require_xt("grid_points");
  QPINN_CHECK(nx >= 2 && nt >= 2, "grid_points needs nx, nt >= 2");
  const Tensor xs = Tensor::linspace(domain.x_lo, domain.x_hi, nx);
  const Tensor ts = Tensor::linspace(domain.t_lo, domain.t_hi, nt);
  const std::int64_t t_begin = skip_initial_slice ? 1 : 0;
  const std::int64_t rows = nx * (nt - t_begin);
  Tensor out(Shape{rows, 2});
  double* p = out.data();
  std::int64_t r = 0;
  for (std::int64_t j = t_begin; j < nt; ++j) {
    for (std::int64_t i = 0; i < nx; ++i, ++r) {
      p[2 * r] = xs[i];
      p[2 * r + 1] = ts[j];
    }
  }
  return out;
}

Tensor uniform_points(const Domain& domain, std::int64_t n, Rng& rng) {
  domain.validate();
  QPINN_CHECK(n >= 1, "uniform_points needs n >= 1");
  const auto cols = axes(domain);
  Tensor out(Shape{n, static_cast<std::int64_t>(cols.size())});
  double* p = out.data();
  for (std::int64_t r = 0; r < n; ++r) {
    for (const auto& [lo, hi] : cols) *p++ = rng.uniform(lo, hi);
  }
  return out;
}

Tensor latin_hypercube_points(const Domain& domain, std::int64_t n, Rng& rng) {
  domain.validate();
  QPINN_CHECK(n >= 1, "latin_hypercube_points needs n >= 1");
  const auto cols = axes(domain);
  const auto rows = static_cast<std::size_t>(n);
  std::vector<std::vector<std::size_t>> perms;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    perms.push_back(rng.permutation(rows));
  }
  Tensor out(Shape{n, static_cast<std::int64_t>(cols.size())});
  double* p = out.data();
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const auto [lo, hi] = cols[c];
      *p++ = lo + (hi - lo) * ((static_cast<double>(perms[c][r]) +
                                rng.uniform()) * inv_n);
    }
  }
  return out;
}

Tensor initial_points(const Domain& domain, std::int64_t nx) {
  domain.validate();
  domain.require_xt("initial_points");
  QPINN_CHECK(nx >= 2, "initial_points needs nx >= 2");
  const Tensor xs = Tensor::linspace(domain.x_lo, domain.x_hi, nx);
  Tensor out(Shape{nx, 2});
  double* p = out.data();
  for (std::int64_t i = 0; i < nx; ++i) {
    p[2 * i] = xs[i];
    p[2 * i + 1] = domain.t_lo;
  }
  return out;
}

Tensor boundary_points(const Domain& domain, std::int64_t nt) {
  domain.validate();
  domain.require_xt("boundary_points");
  QPINN_CHECK(nt >= 2, "boundary_points needs nt >= 2");
  const Tensor ts = Tensor::linspace(domain.t_lo, domain.t_hi, nt);
  Tensor out(Shape{2 * nt, 2});
  double* p = out.data();
  for (std::int64_t j = 0; j < nt; ++j) {
    p[2 * j] = domain.x_lo;
    p[2 * j + 1] = ts[j];
  }
  for (std::int64_t j = 0; j < nt; ++j) {
    const std::int64_t r = nt + j;
    p[2 * r] = domain.x_hi;
    p[2 * r + 1] = ts[j];
  }
  return out;
}

Tensor trapezoid_weights(const Domain& domain, std::int64_t nx) {
  QPINN_CHECK(nx >= 2, "trapezoid_weights needs nx >= 2");
  const double dx = domain.x_span() / static_cast<double>(nx - 1);
  Tensor weights = Tensor::full({nx, 1}, dx);
  weights[0] *= 0.5;
  weights[nx - 1] *= 0.5;
  return weights;
}

CollocationSet make_collocation(const Domain& domain,
                                const SamplingConfig& config) {
  CollocationSet set;
  Rng rng(config.seed);
  switch (config.kind) {
    case SamplerKind::kGrid:
      set.interior = grid_points(domain, config.n_interior_x,
                                 config.n_interior_t,
                                 /*skip_initial_slice=*/true);
      break;
    case SamplerKind::kUniformRandom:
      set.interior = uniform_points(
          domain, config.n_interior_x * config.n_interior_t, rng);
      break;
    case SamplerKind::kLatinHypercube:
      set.interior = latin_hypercube_points(
          domain, config.n_interior_x * config.n_interior_t, rng);
      break;
  }
  if (config.n_initial > 0) {
    set.initial = initial_points(domain, config.n_initial);
  }
  if (config.n_boundary > 0) {
    set.boundary = boundary_points(domain, config.n_boundary);
  }
  return set;
}

}  // namespace qpinn::core
