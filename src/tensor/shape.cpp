#include "tensor/shape.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace qpinn {

std::int64_t numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::vector<std::int64_t> row_major_strides(const Shape& shape) {
  std::vector<std::int64_t> strides(shape.size());
  std::int64_t acc = 1;
  for (std::size_t i = shape.size(); i-- > 0;) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

Shape broadcast_shapes(const Shape& a, const Shape& b) {
  const std::size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const std::int64_t da =
        i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const std::int64_t db =
        i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    if (da == db || da == 1 || db == 1) {
      out[i] = std::max(da, db);
    } else {
      throw ShapeError("cannot broadcast " + shape_to_string(a) + " with " +
                       shape_to_string(b));
    }
  }
  return out;
}

bool broadcastable_to(const Shape& from, const Shape& to) {
  if (from.size() > to.size()) return false;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const std::int64_t df = from[from.size() - 1 - i];
    const std::int64_t dt = to[to.size() - 1 - i];
    if (df != dt && df != 1) return false;
  }
  return true;
}

void check_shape_valid(const Shape& shape) {
  for (std::int64_t d : shape) {
    if (d <= 0) {
      throw ShapeError("invalid shape " + shape_to_string(shape) +
                       " (all extents must be positive)");
    }
  }
}

bool is_row_vector_of(const Shape& v, const Shape& mat) {
  if (mat.size() != 2) return false;
  return (v.size() == 1 && v[0] == mat[1]) ||
         (v.size() == 2 && v[0] == 1 && v[1] == mat[1]);
}

bool is_column_vector_of(const Shape& v, const Shape& mat) {
  if (mat.size() != 2) return false;
  return (v.size() == 1 && v[0] == mat[0]) ||
         (v.size() == 2 && v[0] == mat[0] && v[1] == 1);
}

}  // namespace qpinn
