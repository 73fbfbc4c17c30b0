// itask::Tensor — minimal dense FP32 tensor used throughout the iTask stack.
//
// Design notes (see DESIGN.md §6):
//  * Row-major contiguous storage, value semantics. At the model sizes this
//    reproduction trains (tiny ViTs), copies are cheap and keep the code
//    obviously correct; no view/stride machinery is needed.
//  * All shape arithmetic uses int64_t to avoid narrowing surprises.
//  * Errors are programming errors, reported via ITASK_CHECK (throws
//    std::invalid_argument) so tests can assert on misuse.
//  * Allocator seam (tensor/arena.h): a tensor owns a heap vector by
//    default, but while an ArenaScope is bound on the constructing thread,
//    new storage comes from that arena instead — same values, same layout,
//    no heap traffic. Arena-backed tensors are invalidated by the release
//    of the ArenaMark they were allocated under and by the arena's reset();
//    they must not outlive either (the runtime ends its scope before
//    anything escapes a worker). Tensor::borrow() additionally
//    gives a non-owning view over caller storage.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/shape.h"

namespace itask {

/// Dense row-major FP32 tensor with value semantics.
class Tensor {
 public:
  /// Empty tensor: zero dims, zero elements.
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with every element set to `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor of the given shape whose every element the caller writes
  /// before reading it: arena storage is left as its last use left it
  /// (heap storage is still zeroed). For outputs a kernel fully overwrites.
  static Tensor uninitialized(Shape shape);

  /// Tensor with explicit contents; `values.size()` must equal the shape's
  /// element count. Always adopts the vector as heap storage (the values
  /// were already allocated), even under an ArenaScope.
  Tensor(Shape shape, std::vector<float> values);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  /// Builds a 1-D tensor from a list of values.
  static Tensor from_values(std::initializer_list<float> values);

  /// Builds a 2-D tensor from nested lists; all rows must be equal length.
  static Tensor from_rows(
      std::initializer_list<std::initializer_list<float>> rows);

  /// Non-owning read-only view over caller storage (no copy, no
  /// allocation) — how the runtime serves a singleton group straight from
  /// the request's own tensor. Contract: the storage outlives the view and
  /// the view is only read through const access; copying it makes a normal
  /// owning tensor.
  static Tensor borrow(Shape shape, std::span<const float> storage);

  const Shape& shape() const { return shape_; }
  int64_t dim(int64_t i) const;
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  std::span<float> data() {
    return std::span<float>(data_, static_cast<size_t>(numel_));
  }
  std::span<const float> data() const {
    return std::span<const float>(data_, static_cast<size_t>(numel_));
  }

  /// Flat element access (row-major order).
  float& operator[](int64_t flat_index);
  float operator[](int64_t flat_index) const;

  /// Multi-dimensional access; the number of indices must equal ndim().
  float& at(std::initializer_list<int64_t> indices);
  float at(std::initializer_list<int64_t> indices) const;

  /// Returns a copy with the new shape; element count must match.
  Tensor reshape(Shape new_shape) const;

  /// Returns a copy of row `i` of a 2-D tensor as a 1-D tensor.
  Tensor row(int64_t i) const;

  /// Returns a copy of sub-tensor `t[i]` (drops the leading dimension).
  Tensor index(int64_t i) const;

  /// Writes `value` (shape = this->shape() minus leading dim) into slot `i`.
  void set_index(int64_t i, const Tensor& value);

  void fill(float value);

  /// True when shapes are equal and all elements differ by at most `atol`.
  bool allclose(const Tensor& other, float atol = 1e-5f) const;

  /// Summarised "Tensor[2, 3] {…}" string (first few elements) for debugging.
  std::string to_string() const;

 private:
  int64_t flat_offset(std::initializer_list<int64_t> indices) const;
  /// Sizes storage for shape_ via the current allocation policy (arena when
  /// an ArenaScope is bound, heap otherwise) and fills it.
  void allocate(float fill);
  /// Same, leaving arena storage uninitialised (callers overwrite fully).
  void allocate_uninit();

  Shape shape_;
  float* data_ = nullptr;
  int64_t numel_ = 0;
  /// Owning storage on the heap policy; empty for arena-backed or borrowed
  /// tensors (whose data_ the tensor does not own).
  std::vector<float> heap_;
};

}  // namespace itask
