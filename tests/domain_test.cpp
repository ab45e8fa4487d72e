#include <gtest/gtest.h>

#include <set>

#include "core/curriculum.hpp"
#include "core/domain.hpp"
#include "core/schrodinger_problem.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

const Domain kDomain{-2.0, 3.0, 0.0, 1.5};

TEST(Domain, SpansAndValidation) {
  EXPECT_DOUBLE_EQ(kDomain.x_span(), 5.0);
  EXPECT_DOUBLE_EQ(kDomain.t_span(), 1.5);
  Domain bad{1.0, 1.0, 0.0, 1.0};
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(Sampler, ParseRoundTrip) {
  EXPECT_EQ(parse_sampler("grid"), SamplerKind::kGrid);
  EXPECT_EQ(parse_sampler("uniform"), SamplerKind::kUniformRandom);
  EXPECT_EQ(parse_sampler("lhs"), SamplerKind::kLatinHypercube);
  EXPECT_EQ(to_string(SamplerKind::kLatinHypercube), "lhs");
  EXPECT_THROW(parse_sampler("sobol"), ValueError);
}

TEST(GridPoints, CoversTensorProduct) {
  const Tensor points = grid_points(kDomain, 4, 3);
  ASSERT_EQ(points.shape(), (Shape{12, 2}));
  // First row: (x_lo, t_lo); last row: (x_hi, t_hi).
  EXPECT_DOUBLE_EQ(points.at(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(points.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(points.at(11, 0), 3.0);
  EXPECT_DOUBLE_EQ(points.at(11, 1), 1.5);
}

TEST(GridPoints, SkipInitialSliceDropsT0) {
  const Tensor points = grid_points(kDomain, 4, 3, /*skip_initial_slice=*/true);
  ASSERT_EQ(points.rows(), 8);
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    EXPECT_GT(points.at(r, 1), 0.0);
  }
}

TEST(UniformPoints, InDomain) {
  Rng rng(5);
  const Tensor points = uniform_points(kDomain, 500, rng);
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    EXPECT_GE(points.at(r, 0), kDomain.x_lo);
    EXPECT_LT(points.at(r, 0), kDomain.x_hi);
    EXPECT_GE(points.at(r, 1), kDomain.t_lo);
    EXPECT_LT(points.at(r, 1), kDomain.t_hi);
  }
}

TEST(LatinHypercube, OnePointPerStratum) {
  Rng rng(6);
  const std::int64_t n = 64;
  const Tensor points = latin_hypercube_points(kDomain, n, rng);
  std::set<std::int64_t> x_strata, t_strata;
  for (std::int64_t r = 0; r < n; ++r) {
    const double ux = (points.at(r, 0) - kDomain.x_lo) / kDomain.x_span();
    const double ut = (points.at(r, 1) - kDomain.t_lo) / kDomain.t_span();
    x_strata.insert(static_cast<std::int64_t>(ux * static_cast<double>(n)));
    t_strata.insert(static_cast<std::int64_t>(ut * static_cast<double>(n)));
  }
  // Latin hypercube property: every stratum hit exactly once.
  EXPECT_EQ(x_strata.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(t_strata.size(), static_cast<std::size_t>(n));
}

TEST(InitialPoints, AllAtTLo) {
  const Tensor points = initial_points(kDomain, 16);
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    EXPECT_DOUBLE_EQ(points.at(r, 1), kDomain.t_lo);
  }
  EXPECT_DOUBLE_EQ(points.at(0, 0), kDomain.x_lo);
  EXPECT_DOUBLE_EQ(points.at(15, 0), kDomain.x_hi);
}

TEST(BoundaryPoints, BothWallsCovered) {
  const Tensor points = boundary_points(kDomain, 8);
  ASSERT_EQ(points.rows(), 16);
  for (std::int64_t r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(points.at(r, 0), kDomain.x_lo);
  }
  for (std::int64_t r = 8; r < 16; ++r) {
    EXPECT_DOUBLE_EQ(points.at(r, 0), kDomain.x_hi);
  }
}

TEST(MakeCollocation, GridKindSkipsInitialSlice) {
  SamplingConfig config;
  config.kind = SamplerKind::kGrid;
  config.n_interior_x = 5;
  config.n_interior_t = 4;
  config.n_initial = 10;
  config.n_boundary = 6;
  const CollocationSet set = make_collocation(kDomain, config);
  EXPECT_EQ(set.interior.rows(), 5 * 3);
  EXPECT_EQ(set.initial.rows(), 10);
  EXPECT_EQ(set.boundary.rows(), 12);
}

TEST(MakeCollocation, RandomKindsUseTotalCount) {
  SamplingConfig config;
  config.kind = SamplerKind::kLatinHypercube;
  config.n_interior_x = 7;
  config.n_interior_t = 6;
  config.n_boundary = 0;
  const CollocationSet set = make_collocation(kDomain, config);
  EXPECT_EQ(set.interior.rows(), 42);
  // Boundary disabled -> sentinel non-matrix tensor.
  EXPECT_NE(set.boundary.rank(), 2);
}

TEST(MakeCollocation, DeterministicPerSeed) {
  SamplingConfig config;
  config.kind = SamplerKind::kUniformRandom;
  config.seed = 33;
  const CollocationSet a = make_collocation(kDomain, config);
  const CollocationSet b = make_collocation(kDomain, config);
  for (std::int64_t i = 0; i < a.interior.numel(); ++i) {
    EXPECT_DOUBLE_EQ(a.interior[i], b.interior[i]);
  }
}

// ---- a domain with a y axis ---------------------------------------------

const Domain kPlane{-2.0, 3.0, 0.0, 1.5, 1.0, 2.0};

TEST(Domain, YAxisExistsOnlyWithPositiveSpan) {
  EXPECT_FALSE(kDomain.has_y());
  EXPECT_TRUE(kPlane.has_y());
  Domain inverted = kPlane;
  inverted.y_hi = 0.5;
  EXPECT_THROW(inverted.validate(), ConfigError);
}

TEST(UniformPoints, YAxisAddsAMiddleColumn) {
  Rng rng(4);
  const Tensor points = uniform_points(kPlane, 200, rng);
  ASSERT_EQ(points.shape(), (Shape{200, 3}));
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    EXPECT_GE(points.at(r, 0), -2.0);
    EXPECT_LE(points.at(r, 0), 3.0);
    EXPECT_GE(points.at(r, 1), 1.0);
    EXPECT_LE(points.at(r, 1), 2.0);
    EXPECT_GE(points.at(r, 2), 0.0);
    EXPECT_LE(points.at(r, 2), 1.5);
  }
}

TEST(LatinHypercube, YAxisDrawsPermutationsFirstInAxisOrder) {
  // Permutations come first, x's first of all, so with the same seed every
  // row's x stratum matches the (x, t) draw's; the y column is stratified.
  const std::int64_t n = 25;
  Rng rng_line(6), rng_plane(6);
  const Tensor line = latin_hypercube_points(kDomain, n, rng_line);
  const Tensor plane = latin_hypercube_points(kPlane, n, rng_plane);
  ASSERT_EQ(plane.shape(), (Shape{n, 3}));
  const auto stratum = [&](double v, double lo, double span) {
    return static_cast<std::int64_t>((v - lo) / span * n);
  };
  std::set<std::int64_t> sy;
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(stratum(plane.at(r, 0), -2.0, 5.0),
              stratum(line.at(r, 0), -2.0, 5.0)) << "row " << r;
    sy.insert(stratum(plane.at(r, 1), 1.0, 1.0));
  }
  EXPECT_EQ(sy.size(), static_cast<std::size_t>(n));
}

TEST(CollocationSets, XtOnlySetsRejectAYAxis) {
  EXPECT_THROW(grid_points(kPlane, 4, 3), ConfigError);
  EXPECT_THROW(initial_points(kPlane, 4), ConfigError);
  EXPECT_THROW(boundary_points(kPlane, 4), ConfigError);
  SamplingConfig config;
  config.kind = SamplerKind::kLatinHypercube;
  config.n_initial = 0;
  const CollocationSet set = make_collocation(kPlane, config);
  EXPECT_EQ(set.interior.cols(), 3);
  EXPECT_NE(set.initial.rank(), 2);  // n_initial = 0: no initial set
}

// ---- a stationary domain (no t axis) --------------------------------------

const Domain kLine{-2.0, 3.0, 0.5, 0.5};

TEST(Domain, StationaryGridIsTheXLinspace) {
  EXPECT_FALSE(kLine.has_t());
  EXPECT_TRUE(kDomain.has_t());
  Domain inverted = kLine;
  inverted.t_hi = 0.0;
  EXPECT_THROW(inverted.validate(), ConfigError);

  const Tensor xs = Tensor::linspace(-2.0, 3.0, 9);
  SamplingConfig config;
  config.n_interior_x = 9;
  config.n_initial = 0;
  const CollocationSet set = make_collocation(kLine, config);
  ASSERT_EQ(set.interior.shape(), (Shape{9, 1}));
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(set.interior[i], xs[i]);
  config.kind = SamplerKind::kLatinHypercube;
  EXPECT_EQ(make_collocation(kLine, config).interior.shape(),
            (Shape{9 * 32, 1}));
}

TEST(Domain, TimeDependentSetsRejectAStationaryDomain) {
  EXPECT_THROW(initial_points(kLine, 4), ConfigError);
  EXPECT_THROW(boundary_points(kLine, 4), ConfigError);
  Tensor X = Tensor::linspace(-2.0, 3.0, 4).reshape({4, 1});
  EXPECT_THROW(per_point_weights(CurriculumConfig{}, kLine, X, 0),
               ConfigError);
  SchrodingerProblem::Config problem;
  problem.domain = kLine;
  problem.initial = gaussian_packet_ic(0.0, 0.0, 1.0);
  EXPECT_THROW(SchrodingerProblem{problem}, ConfigError);
}

}  // namespace
}  // namespace qpinn::core
