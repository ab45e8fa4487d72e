#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/storage_pool.hpp"
#include "util/error.hpp"
#include "util/invariant.hpp"

namespace qpinn {

Tensor::Tensor() : Tensor(Shape{}) {}

Tensor::Tensor(Shape shape) {
  check_shape_valid(shape);
  shape_ = std::move(shape);
  numel_ = qpinn::numel(shape_);
  storage_ = StoragePool::instance().acquire(static_cast<std::size_t>(numel_));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::uninitialized(Shape shape) {
  check_shape_valid(shape);
  const std::int64_t n = qpinn::numel(shape);
  return Tensor(
      StoragePool::instance().acquire(static_cast<std::size_t>(n),
                                      /*zero=*/false),
      std::move(shape));
}

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0); }

Tensor Tensor::full(Shape shape, double value) {
  Tensor t(std::move(shape));
  std::fill(t.storage_->begin(), t.storage_->end(), value);
  return t;
}

Tensor Tensor::scalar(double value) {
  Tensor t{Shape{}};
  (*t.storage_)[0] = value;
  return t;
}

Tensor Tensor::from_vector(std::vector<double> values, Shape shape) {
  check_shape_valid(shape);
  QPINN_CHECK_SHAPE(
      qpinn::numel(shape) == static_cast<std::int64_t>(values.size()),
      "from_vector: " + std::to_string(values.size()) +
          " values cannot fill shape " + shape_to_string(shape));
  return Tensor(StoragePool::instance().adopt(std::move(values)),
                std::move(shape));
}

Tensor::Tensor(std::shared_ptr<std::vector<double>> storage, Shape shape)
    : storage_(std::move(storage)),
      shape_(std::move(shape)),
      numel_(qpinn::numel(shape_)) {}

std::optional<Tensor> Tensor::from_handle(const StorageHandle& h,
                                          Shape shape) {
  std::shared_ptr<std::vector<double>> storage = h.lock();
  if (!storage) return std::nullopt;
  QPINN_CHECK_SHAPE(
      qpinn::numel(shape) == static_cast<std::int64_t>(storage->size()),
      "from_handle: shape " + shape_to_string(shape) +
          " does not cover a storage of " + std::to_string(storage->size()) +
          " elements");
  return Tensor(std::move(storage), std::move(shape));
}

Tensor Tensor::rand(Shape shape, Rng& rng, double lo, double hi) {
  Tensor t(std::move(shape));
  for (auto& v : *t.storage_) v = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, double mean, double stddev) {
  Tensor t(std::move(shape));
  for (auto& v : *t.storage_) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::linspace(double lo, double hi, std::int64_t n) {
  QPINN_CHECK(n >= 2, "linspace needs at least two points");
  Tensor t(Shape{n});
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::int64_t i = 0; i < n; ++i) {
    (*t.storage_)[static_cast<std::size_t>(i)] =
        lo + step * static_cast<double>(i);
  }
  (*t.storage_)[static_cast<std::size_t>(n - 1)] = hi;  // exact endpoint
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  QPINN_CHECK(n >= 1, "arange needs n >= 1");
  Tensor t(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    (*t.storage_)[static_cast<std::size_t>(i)] = static_cast<double>(i);
  }
  return t;
}

std::int64_t Tensor::dim(std::int64_t axis) const {
  QPINN_CHECK_SHAPE(axis >= 0 && axis < rank(),
                    "dim(" + std::to_string(axis) + ") out of range for " +
                        shape_to_string(shape_));
  return shape_[static_cast<std::size_t>(axis)];
}

std::int64_t Tensor::rows() const {
  QPINN_CHECK_SHAPE(rank() == 2, "rows() requires a rank-2 tensor, got " +
                                     shape_to_string(shape_));
  return shape_[0];
}

std::int64_t Tensor::cols() const {
  QPINN_CHECK_SHAPE(rank() == 2, "cols() requires a rank-2 tensor, got " +
                                     shape_to_string(shape_));
  return shape_[1];
}

std::int64_t Tensor::check_index(std::int64_t i) const {
  QPINN_CHECK_SHAPE(i >= 0 && i < numel_,
                    "flat index " + std::to_string(i) + " out of range for " +
                        shape_to_string(shape_));
  return i;
}

double& Tensor::at(std::int64_t r, std::int64_t c) {
  QPINN_CHECK_SHAPE(rank() == 2, "at(r, c) requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
                    "index (" + std::to_string(r) + ", " + std::to_string(c) +
                        ") out of range for " + shape_to_string(shape_));
  return (*storage_)[static_cast<std::size_t>(r * shape_[1] + c)];
}

double Tensor::at(std::int64_t r, std::int64_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

double Tensor::item() const {
  QPINN_CHECK_SHAPE(numel_ == 1, "item() requires exactly one element, got " +
                                     shape_to_string(shape_));
  return (*storage_)[0];
}

Tensor Tensor::reshape(Shape new_shape) const {
  check_shape_valid(new_shape);
  QPINN_CHECK_SHAPE(qpinn::numel(new_shape) == numel_,
                    "reshape " + shape_to_string(shape_) + " -> " +
                        shape_to_string(new_shape) + " changes element count");
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::clone() const {
  Tensor t(StoragePool::instance().acquire(static_cast<std::size_t>(numel_),
                                           /*zero=*/false),
           shape_);
  std::copy(storage_->begin(), storage_->end(), t.storage_->begin());
  return t;
}

void Tensor::validate(const char* site) const {
  const char* violation = nullptr;
  if (!storage_) {
    violation = "no storage (moved-from or corrupted tensor)";
  } else if (numel_ != qpinn::numel(shape_)) {
    violation = "cached numel disagrees with the shape product";
  } else if (static_cast<std::size_t>(numel_) != storage_->size()) {
    violation = "storage size disagrees with the shape";
  } else {
    for (const std::int64_t extent : shape_) {
      if (extent <= 0) {
        violation = "non-positive extent";
        break;
      }
    }
  }
  if (violation != nullptr) {
    throw InvariantError(site, "storage",
                         std::string(violation) + " in tensor of shape " +
                             shape_to_string(shape_) + " (numel " +
                             std::to_string(numel_) + ")");
  }
}

bool Tensor::all_finite() const {
  for (double v : *storage_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double Tensor::min() const {
  return *std::min_element(storage_->begin(), storage_->end());
}

double Tensor::max() const {
  return *std::max_element(storage_->begin(), storage_->end());
}

double Tensor::abs_max() const {
  double m = 0.0;
  for (double v : *storage_) m = std::max(m, std::abs(v));
  return m;
}

std::string Tensor::to_string(std::int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const std::int64_t shown = std::min(numel_, max_elements);
  for (std::int64_t i = 0; i < shown; ++i) {
    if (i > 0) os << ", ";
    os << (*storage_)[static_cast<std::size_t>(i)];
  }
  if (shown < numel_) os << ", ... (" << numel_ - shown << " more)";
  os << "}";
  return os.str();
}

}  // namespace qpinn
