// Dense, row-major, double-precision tensor with shared storage.
//
// Tensor is a cheap value type: copies share the underlying buffer
// (copy-on-explicit-clone). All qpinn kernels allocate fresh outputs; the
// only sanctioned in-place mutation is through data() by code that owns the
// tensor (e.g. optimizers updating parameters).
//
// Storage comes from tensor/storage_pool.hpp: released buffers recycle
// through size-bucketed free lists instead of the global allocator (set
// QPINN_NO_POOL=1 to disable). Pooling is invisible to Tensor semantics —
// a live buffer is always exclusively owned until shared by copies.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tensor/shape.hpp"
#include "util/rng.hpp"

namespace qpinn {

class Tensor {
 public:
  /// Empty tensor (rank 0, one element, value 0) — a scalar zero.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // ---- factories -------------------------------------------------------
  static Tensor zeros(Shape shape);
  /// Unspecified contents — the caller must overwrite every element before
  /// any read. For kernels whose output is fully written (elementwise,
  /// broadcast, transpose); skips the zero-fill write pass, which is half
  /// the memory traffic of a memory-bound elementwise op.
  static Tensor uninitialized(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, double value);
  static Tensor scalar(double value);
  /// Takes ownership of `values`; numel(shape) must equal values.size().
  static Tensor from_vector(std::vector<double> values, Shape shape);
  /// Uniform random in [lo, hi).
  static Tensor rand(Shape shape, Rng& rng, double lo = 0.0, double hi = 1.0);
  /// Gaussian with the given moments.
  static Tensor randn(Shape shape, Rng& rng, double mean = 0.0,
                      double stddev = 1.0);
  /// n evenly spaced values in [lo, hi] inclusive, shape {n}.
  static Tensor linspace(double lo, double hi, std::int64_t n);
  /// 0, 1, ..., n-1 as doubles, shape {n}.
  static Tensor arange(std::int64_t n);

  // ---- shape queries ----------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t numel() const { return numel_; }
  std::int64_t dim(std::int64_t axis) const;
  /// Rank-2 helpers; throw ShapeError when rank != 2.
  std::int64_t rows() const;
  std::int64_t cols() const;
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  // ---- element access ---------------------------------------------------
  double* data() { return storage_->data(); }
  const double* data() const { return storage_->data(); }
  double& operator[](std::int64_t i) { return (*storage_)[check_index(i)]; }
  double operator[](std::int64_t i) const { return (*storage_)[check_index(i)]; }
  /// 2-D access with bounds checks.
  double& at(std::int64_t r, std::int64_t c);
  double at(std::int64_t r, std::int64_t c) const;
  /// Value of a one-element tensor; throws ShapeError otherwise.
  double item() const;

  // ---- views & copies ---------------------------------------------------
  /// Shares storage; numel must be preserved.
  Tensor reshape(Shape new_shape) const;
  /// Deep copy with private storage.
  Tensor clone() const;
  /// True when storage is shared with `other`.
  bool shares_storage(const Tensor& other) const {
    return storage_ == other.storage_;
  }
  /// Non-owning handle on this tensor's storage. It never keeps the storage
  /// alive, and a buffer the pool recycles into a new tensor is a new
  /// storage with a new handle, so the plan recorder (autodiff/plan.cpp)
  /// can tell a recycled data pointer apart from the buffer it recorded.
  using StorageHandle = std::weak_ptr<std::vector<double>>;
  StorageHandle storage_handle() const { return storage_; }
  /// True when `h` was taken from this tensor's storage.
  bool has_storage(const StorageHandle& h) const {
    return !h.owner_before(storage_) && !storage_.owner_before(h);
  }
  /// A tensor of `shape` over the storage behind `h`, or nullopt once that
  /// storage has been released. numel(shape) must equal the storage size.
  static std::optional<Tensor> from_handle(const StorageHandle& h,
                                           Shape shape);

  // ---- diagnostics ------------------------------------------------------
  /// Storage/shape/stride agreement: storage present, every extent
  /// positive, cached numel == product of extents == buffer size. Always
  /// callable; kernels invoke it on their operands in checked builds
  /// (QPINN_CHECKED), where a violation — e.g. a moved-from tensor, or
  /// metadata scribbled over through data() — raises InvariantError naming
  /// `site`. See util/invariant.hpp.
  void validate(const char* site) const;
  bool all_finite() const;
  double min() const;
  double max() const;
  double abs_max() const;
  std::string to_string(std::int64_t max_elements = 24) const;

 private:
  /// Wraps already-acquired storage without touching the pool (used by
  /// from_vector so adoption is the only allocation event).
  Tensor(std::shared_ptr<std::vector<double>> storage, Shape shape);

  std::int64_t check_index(std::int64_t i) const;

  std::shared_ptr<std::vector<double>> storage_;
  Shape shape_;
  std::int64_t numel_ = 0;
};

}  // namespace qpinn
