#include "nn/linear.h"

#include "nn/init.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace itask::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(register_parameter(
          "weight", xavier_uniform({out_features, in_features}, in_features,
                                   out_features, rng))) {
  if (bias) {
    bias_ = &register_parameter("bias", Tensor({out_features}));
  }
}

Tensor Linear::forward(const Tensor& input) {
  ITASK_CHECK(input.ndim() >= 1, "Linear: input must be at least 1-D");
  ITASK_CHECK(input.dim(input.ndim() - 1) == in_features_,
              "Linear: trailing dim mismatch");
  const int64_t rows = input.numel() / in_features_;
  Tensor x2d = input.reshape({rows, in_features_});
  Tensor y = ops::matmul_bt(x2d, weight_.value);  // [rows, out]
  if (bias_ != nullptr) y = ops::add_rowwise(y, bias_->value);
  cached_input_2d_ = x2d;
  cached_input_shape_ = input.shape();
  Shape out_shape = input.shape();
  out_shape.back() = out_features_;
  return y.reshape(std::move(out_shape));
}

Tensor Linear::infer(const Tensor& input, const ops::Epilogue& ep) const {
  ITASK_CHECK(input.ndim() >= 1, "Linear: input must be at least 1-D");
  ITASK_CHECK(input.dim(input.ndim() - 1) == in_features_,
              "Linear: trailing dim mismatch");
  const int64_t rows = input.numel() / in_features_;
  Shape out_shape = input.shape();
  out_shape.back() = out_features_;
  ITASK_CHECK(ep.residual == nullptr || ep.residual->shape() == out_shape,
              "Linear: residual shape mismatch");
  // The GEMM accumulates into zeroed storage: the returned tensor, or
  // scratch when the output goes into the residual stream. Storage is
  // row-major contiguous, so the input's flat data already IS the
  // [rows, in] matrix and the output IS [..., out] — no reshape copies.
  // The scratch is released when the call returns; the output outlives it.
  const bool into_stream = ep.residual != nullptr;
  Tensor y;
  if (!into_stream) y = Tensor(std::move(out_shape));
  const ArenaMark mark;
  ScratchVec<float> scratch(into_stream ? rows * out_features_ : 0);
  float* out = into_stream ? scratch.data() : y.data().data();
  if (packed_ != nullptr) {
    // Published model: the weight panels were packed once at publish time.
    // gemm_bt_prepacked is bit-identical to gemm_bt, so this path stays
    // arithmetically identical to forward().
    gemm::gemm_bt_prepacked(input.data().data(), *packed_, out, rows);
  } else {
    gemm::gemm_bt(input.data().data(), weight_.value.data().data(), out,
                  rows, in_features_, out_features_);
  }
  const float* bias = bias_ != nullptr ? bias_->value.data().data() : nullptr;
  float* stream = into_stream ? ep.residual->data().data() : nullptr;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out + r * out_features_;
    if (bias != nullptr)
      for (int64_t j = 0; j < out_features_; ++j) row[j] += bias[j];
    if (stream != nullptr) {
      float* srow = stream + r * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) srow[j] += row[j];
    } else if (ep.gelu) {
      ops::gelu_row(row, out_features_);
    }
  }
  return y;
}

void Linear::prepack_for_serving() {
  if (packed_ != nullptr) return;  // idempotent — no writes once packed
  packed_ = std::make_shared<const gemm::PackedB>(gemm::pack_weights_bt(
      weight_.value.data().data(), in_features_, out_features_));
}

Tensor Linear::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_input_2d_.empty(), "Linear: backward before forward");
  const int64_t rows = cached_input_2d_.dim(0);
  ITASK_CHECK(grad_out.numel() == rows * out_features_,
              "Linear: grad_out size mismatch");
  Tensor g2d = grad_out.reshape({rows, out_features_});
  // dW[out,in] += gᵀ · x
  ops::add_inplace(weight_.grad, ops::matmul_at(g2d, cached_input_2d_));
  if (bias_ != nullptr)
    ops::add_inplace(bias_->grad, ops::sum_to_lastdim(g2d));
  // dx[rows,in] = g · W
  Tensor dx = ops::matmul(g2d, weight_.value);
  return dx.reshape(cached_input_shape_);
}

}  // namespace itask::nn
