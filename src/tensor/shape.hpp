// Shapes and broadcasting rules.
//
// qpinn tensors are dense, row-major, double precision. Shapes are small
// vectors of extents; broadcasting follows NumPy semantics (align trailing
// dimensions, extents must match or be 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qpinn {

using Shape = std::vector<std::int64_t>;

/// Product of extents; the scalar shape {} has numel 1.
std::int64_t numel(const Shape& shape);

/// "[2, 3]" style rendering for diagnostics.
std::string shape_to_string(const Shape& shape);

/// Row-major strides (in elements). Scalars get an empty stride vector.
std::vector<std::int64_t> row_major_strides(const Shape& shape);

/// NumPy-style broadcast of two shapes; throws ShapeError when incompatible.
Shape broadcast_shapes(const Shape& a, const Shape& b);

/// True when `from` can broadcast to `to`.
bool broadcastable_to(const Shape& from, const Shape& to);

/// Validates that every extent is positive; throws ShapeError otherwise.
void check_shape_valid(const Shape& shape);

// Shape classes of the kernel fast paths. The kernels, the plan fusion
// pass and the mixed-precision demoter all test these, so they cannot
// disagree on which path an op takes.

/// True when `v` is a row vector ({m} or {1, m}) across the columns of the
/// rank-2 shape `mat` = {n, m}: a bias / row-broadcast operand, and the
/// target of the row-collapsing sum_to.
bool is_row_vector_of(const Shape& v, const Shape& mat);

/// True when `v` is a column vector ({n} or {n, 1}) down the rows of the
/// rank-2 shape `mat` = {n, m}: per-row loss weights.
bool is_column_vector_of(const Shape& v, const Shape& mat);

}  // namespace qpinn
