// Layer normalisation over the trailing axis, with affine gain/bias.
#pragma once

#include "nn/module.h"

namespace itask::nn {

/// Stateless affine layernorm over the trailing axis, used by the serving
/// graph (vit/graph.h) in both configurations (INT8 keeps LayerNorm in
/// fp32). It runs the same arithmetic as LayerNorm::forward (eight rows per
/// AVX2 lane group, or the scalar row routine), without keeping the
/// normalised rows.
Tensor layernorm_affine(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta);

/// y = (x - mean) / sqrt(var + eps) * gamma + beta, normalised per row
/// (eps is fixed in layernorm.cpp, shared by training and serving).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t features);

  Tensor forward(const Tensor& input);
  Tensor backward(const Tensor& grad_out);

  int64_t features() const { return features_; }
  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }

 private:
  int64_t features_;
  Parameter& gamma_;
  Parameter& beta_;
  // What backward reads, cached by forward and consumed by backward.
  Tensor cached_xhat_;   // normalised input, [rows, C]
  Tensor cached_rstd_;   // 1/sqrt(var+eps) per row, [rows]
  Shape cached_shape_;
};

}  // namespace itask::nn
