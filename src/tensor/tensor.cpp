#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "tensor/arena.h"

namespace itask {

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    ITASK_CHECK(d >= 0, "negative dimension in shape");
    ITASK_CHECK(!__builtin_mul_overflow(n, d, &n),
                "shape element count overflows int64");
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

void Tensor::allocate(float fill) {
  allocate_uninit();
  std::fill_n(data_, numel_, fill);
}

// Note: a default-constructed Tensor has an empty shape AND numel 0, while
// shape_numel({}) is 1 (a scalar) — so copies/views size themselves from the
// source's numel, never by recomputing it from the shape.
void Tensor::allocate_uninit() {
  if (Arena* arena = ArenaScope::current()) {
    data_ = static_cast<float*>(
        arena->allocate(numel_ * static_cast<int64_t>(sizeof(float))));
  } else {
    // heap_.resize value-initialises; the "uninit" contract only matters on
    // the arena path, where memory is reused across resets. Every caller of
    // allocate_uninit overwrites the full extent (or fills, for allocate).
    heap_.resize(static_cast<size_t>(numel_));
    data_ = heap_.data();
  }
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  allocate(0.0f);
}

Tensor::Tensor(Shape shape, float fill) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  allocate(fill);
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = shape_numel(t.shape_);
  t.allocate_uninit();
  return t;
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), heap_(std::move(values)) {
  ITASK_CHECK(static_cast<int64_t>(heap_.size()) == shape_numel(shape_),
              "value count does not match shape " + shape_to_string(shape_));
  numel_ = static_cast<int64_t>(heap_.size());
  data_ = heap_.data();
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), numel_(other.numel_) {
  allocate_uninit();
  if (numel_ > 0)
    std::memcpy(data_, other.data_,
                static_cast<size_t>(numel_) * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    Tensor copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_),
      data_(other.data_),
      numel_(other.numel_),
      heap_(std::move(other.heap_)) {
  // A moved vector keeps its buffer, so a heap-backed data_ stays valid.
  other.shape_ = Shape{};
  other.data_ = nullptr;
  other.numel_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    shape_ = other.shape_;
    data_ = other.data_;
    numel_ = other.numel_;
    heap_ = std::move(other.heap_);
    other.shape_ = Shape{};
    other.data_ = nullptr;
    other.numel_ = 0;
  }
  return *this;
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  return Tensor({static_cast<int64_t>(values.size())},
                std::vector<float>(values));
}

Tensor Tensor::from_rows(
    std::initializer_list<std::initializer_list<float>> rows) {
  const int64_t r = static_cast<int64_t>(rows.size());
  ITASK_CHECK(r > 0, "from_rows needs at least one row");
  const int64_t c = static_cast<int64_t>(rows.begin()->size());
  std::vector<float> values;
  values.reserve(static_cast<size_t>(r * c));
  for (const auto& row : rows) {
    ITASK_CHECK(static_cast<int64_t>(row.size()) == c,
                "ragged rows in from_rows");
    values.insert(values.end(), row.begin(), row.end());
  }
  return Tensor({r, c}, std::move(values));
}

Tensor Tensor::borrow(Shape shape, std::span<const float> storage) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = shape_numel(t.shape_);
  ITASK_CHECK(static_cast<int64_t>(storage.size()) == t.numel_,
              "borrow: storage size does not match shape " +
                  shape_to_string(t.shape_));
  // Read-only by contract (see tensor.h); the view itself never writes.
  t.data_ = const_cast<float*>(storage.data());
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  ITASK_CHECK(i >= 0 && i < ndim(), "dim index out of range");
  return shape_[static_cast<size_t>(i)];
}

float& Tensor::operator[](int64_t flat_index) {
  ITASK_CHECK(flat_index >= 0 && flat_index < numel(),
              "flat index out of range");
  return data_[flat_index];
}

float Tensor::operator[](int64_t flat_index) const {
  ITASK_CHECK(flat_index >= 0 && flat_index < numel(),
              "flat index out of range");
  return data_[flat_index];
}

int64_t Tensor::flat_offset(std::initializer_list<int64_t> indices) const {
  ITASK_CHECK(static_cast<int64_t>(indices.size()) == ndim(),
              "index rank mismatch for shape " + shape_to_string(shape_));
  int64_t offset = 0;
  size_t axis = 0;
  for (int64_t idx : indices) {
    const int64_t extent = shape_[axis];
    ITASK_CHECK(idx >= 0 && idx < extent, "index out of range on axis");
    offset = offset * extent + idx;
    ++axis;
  }
  return offset;
}

float& Tensor::at(std::initializer_list<int64_t> indices) {
  return data_[flat_offset(indices)];
}

float Tensor::at(std::initializer_list<int64_t> indices) const {
  return data_[flat_offset(indices)];
}

Tensor Tensor::reshape(Shape new_shape) const {
  ITASK_CHECK(shape_numel(new_shape) == numel(),
              "reshape element count mismatch: " + shape_to_string(shape_) +
                  " -> " + shape_to_string(new_shape));
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  out.allocate_uninit();
  if (out.numel_ > 0)
    std::memcpy(out.data_, data_,
                static_cast<size_t>(out.numel_) * sizeof(float));
  return out;
}

Tensor Tensor::row(int64_t i) const {
  ITASK_CHECK(ndim() == 2, "row() requires a 2-D tensor");
  return index(i);
}

Tensor Tensor::index(int64_t i) const {
  ITASK_CHECK(ndim() >= 1, "index() requires at least 1-D");
  const int64_t lead = shape_[0];
  ITASK_CHECK(i >= 0 && i < lead, "index() out of range");
  Tensor out;
  out.shape_ = Shape(shape_.begin() + 1, shape_.end());
  out.numel_ = shape_numel(out.shape_);
  out.allocate_uninit();
  if (out.numel_ > 0)
    std::memcpy(out.data_, data_ + i * out.numel_,
                static_cast<size_t>(out.numel_) * sizeof(float));
  return out;
}

void Tensor::set_index(int64_t i, const Tensor& value) {
  ITASK_CHECK(ndim() >= 1, "set_index() requires at least 1-D");
  const int64_t lead = shape_[0];
  ITASK_CHECK(i >= 0 && i < lead, "set_index() out of range");
  const Shape sub(shape_.begin() + 1, shape_.end());
  ITASK_CHECK(value.shape() == sub, "set_index() shape mismatch");
  const int64_t stride = shape_numel(sub);
  if (stride > 0)
    std::memcpy(data_ + i * stride, value.data_,
                static_cast<size_t>(stride) * sizeof(float));
}

void Tensor::fill(float value) { std::fill_n(data_, numel_, value); }

bool Tensor::allclose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (int64_t i = 0; i < numel_; ++i) {
    const float diff = data_[i] - other.data_[i];
    if (diff > atol || diff < -atol) return false;
  }
  return true;
}

std::string Tensor::to_string() const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const int64_t show = std::min<int64_t>(numel(), 8);
  for (int64_t i = 0; i < show; ++i) {
    if (i != 0) os << ", ";
    os << data_[i];
  }
  if (numel() > show) os << ", …";
  os << '}';
  return os.str();
}

}  // namespace itask
