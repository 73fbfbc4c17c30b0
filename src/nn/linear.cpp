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

namespace {

/// The pass over the GEMM result y [rows, n] shared by forward() and
/// infer(): row[j] += bias[j], then, per ep, the row goes into the residual
/// stream (srow[j] += row[j]) or through GELU.
void epilogue_rows(float* y, int64_t rows, int64_t n, const float* bias,
                   const ops::Epilogue& ep) {
  float* stream = ep.residual != nullptr ? ep.residual->data().data() : nullptr;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * n;
    if (bias != nullptr)
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    if (stream != nullptr) {
      float* srow = stream + r * n;
      for (int64_t j = 0; j < n; ++j) srow[j] += row[j];
    } else if (ep.gelu) {
      ops::gelu_row(row, n);
    }
  }
}

}  // namespace

Tensor Linear::forward(const Tensor& input) {
  ITASK_CHECK(input.ndim() >= 1, "Linear: input must be at least 1-D");
  ITASK_CHECK(input.dim(input.ndim() - 1) == in_features_,
              "Linear: trailing dim mismatch");
  // Row-major storage: the input's flat data is the [rows, in] matrix and
  // y's is [rows, out]. Always the live weight, never the serving packing.
  const int64_t rows = input.numel() / in_features_;
  Shape out_shape = input.shape();
  out_shape.back() = out_features_;
  Tensor y(std::move(out_shape));  // zeroed: the GEMM accumulates
  gemm::gemm_bt(input.data().data(), weight_.value.data().data(),
                y.data().data(), rows, in_features_, out_features_);
  epilogue_rows(y.data().data(), rows, out_features_,
                bias_ != nullptr ? bias_->value.data().data() : nullptr, {});
  cached_input_ = input;
  return y;
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
  epilogue_rows(out, rows, out_features_,
                bias_ != nullptr ? bias_->value.data().data() : nullptr, ep);
  return y;
}

void Linear::prepack_for_serving() {
  if (packed_ != nullptr) return;  // idempotent — no writes once packed
  packed_ = std::make_shared<const gemm::PackedB>(gemm::pack_weights_bt(
      weight_.value.data().data(), in_features_, out_features_));
}

Tensor Linear::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_input_.empty(), "Linear: backward before forward");
  const Tensor input = std::move(cached_input_);  // backward consumes it
  if (grad_out.empty()) return {};  // no gradient reaches this layer
  const int64_t rows = input.numel() / in_features_;
  ITASK_CHECK(grad_out.numel() == rows * out_features_,
              "Linear: grad_out size mismatch");
  const float* g = grad_out.data().data();
  Tensor dx(input.shape());  // dx[rows,in] = g · W, zeroed
  gemm::gemm_nn(g, weight_.value.data().data(), dx.data().data(), rows,
                out_features_, in_features_);
  // dW[out,in] += gᵀ · x and db += Σ_rows g, each summed into zeroed
  // scratch and then added: summing into the grads directly would round
  // differently (the GEMM adds each kKC slab of rows to its output).
  const ArenaMark mark;  // the scratch dies with the call
  ScratchVec<float> dw(out_features_ * in_features_);
  gemm::gemm_at(g, input.data().data(), dw.data(), out_features_, rows,
                in_features_);
  float* wg = weight_.grad_buffer().data().data();
  for (int64_t i = 0; i < out_features_ * in_features_; ++i) wg[i] += dw[i];
  if (bias_ != nullptr) {
    ScratchVec<float> db(out_features_);
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t j = 0; j < out_features_; ++j)
        db[j] += g[r * out_features_ + j];
    float* bg = bias_->grad_buffer().data().data();
    for (int64_t j = 0; j < out_features_; ++j) bg[j] += db[j];
  }
  return dx;
}

}  // namespace itask::nn
