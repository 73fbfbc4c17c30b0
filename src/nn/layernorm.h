// Layer normalisation over the trailing axis, with affine gain/bias.
#pragma once

#include "nn/module.h"

namespace itask::nn {

/// Stateless affine layernorm over the trailing axis, used by
/// LayerNorm::infer and the quantized runtime (which keeps LayerNorm in
/// fp32, see quant/qvit.h). It runs the same per-row routine as
/// LayerNorm::forward, without keeping the normalised rows.
Tensor layernorm_affine(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps = 1e-5f);

/// y = (x - mean) / sqrt(var + eps) * gamma + beta, normalised per row.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t features, float eps = 1e-5f);

  Tensor forward(const Tensor& input);

  /// Cache-free forward for concurrent inference (numerically identical to
  /// forward(); touches no mutable state).
  Tensor infer(const Tensor& input) const;

  Tensor backward(const Tensor& grad_out);

  int64_t features() const { return features_; }

 private:
  int64_t features_;
  float eps_;
  Parameter& gamma_;
  Parameter& beta_;
  Tensor cached_xhat_;   // normalised input, [rows, C]
  Tensor cached_rstd_;   // 1/sqrt(var+eps) per row, [rows]
  Shape cached_shape_;
};

}  // namespace itask::nn
