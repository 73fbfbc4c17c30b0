#include "nn/layernorm.h"

#include <cmath>

#include "tensor/ops.h"

namespace itask::nn {

namespace {

constexpr float kEps = 1e-5f;

/// The one definition of LayerNorm's per-row arithmetic: normalises the `c`
/// values at `x`, writes the normalised row to `xhat` and xhat·γ + β to `y`,
/// and returns 1/sqrt(var + kEps). `xhat` and `y` may alias each other and
/// `x` (every element is read before it is written), which is how the
/// serving path runs it in place without materialising xhat.
float layernorm_row(const float* x, const float* g, const float* b, int64_t c,
                    float* xhat, float* y) {
  float mean = 0.0f;
  for (int64_t j = 0; j < c; ++j) mean += x[j];
  mean /= static_cast<float>(c);
  float var = 0.0f;
  for (int64_t j = 0; j < c; ++j) {
    const float d = x[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(c);
  const float rstd = 1.0f / std::sqrt(var + kEps);
  for (int64_t j = 0; j < c; ++j) {
    xhat[j] = (x[j] - mean) * rstd;
    y[j] = xhat[j] * g[j] + b[j];
  }
  return rstd;
}

}  // namespace

Tensor layernorm_affine(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta) {
  ITASK_CHECK(gamma.ndim() == 1 && gamma.shape() == beta.shape(),
              "layernorm_affine: gamma/beta must be matching 1-D");
  const int64_t c = gamma.numel();
  ITASK_CHECK(x.ndim() >= 1 && x.dim(x.ndim() - 1) == c,
              "layernorm_affine: trailing dim mismatch");
  const int64_t rows = x.numel() / c;
  Tensor out = x;
  auto o = out.data();
  auto g = gamma.data();
  auto b = beta.data();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = o.data() + r * c;
    (void)layernorm_row(row, g.data(), b.data(), c, row, row);
  }
  return out;
}

LayerNorm::LayerNorm(int64_t features)
    : features_(features),
      gamma_(register_parameter("gamma", Tensor({features}, 1.0f))),
      beta_(register_parameter("beta", Tensor({features}))) {}

Tensor LayerNorm::forward(const Tensor& input) {
  ITASK_CHECK(input.ndim() >= 1 && input.dim(input.ndim() - 1) == features_,
              "LayerNorm: trailing dim mismatch");
  const int64_t c = features_;
  const int64_t rows = input.numel() / c;
  Tensor xhat({rows, c});
  Tensor rstd({rows});
  Tensor out = input;
  auto in = input.data();
  auto xh = xhat.data();
  auto rs = rstd.data();
  auto o = out.data();
  auto g = gamma_.value.data();
  auto b = beta_.value.data();
  for (int64_t r = 0; r < rows; ++r) {
    rs[r] = layernorm_row(in.data() + r * c, g.data(), b.data(), c,
                          xh.data() + r * c, o.data() + r * c);
  }
  cached_xhat_ = std::move(xhat);
  cached_rstd_ = std::move(rstd);
  cached_shape_ = input.shape();
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_xhat_.empty(), "LayerNorm: backward before forward");
  const int64_t c = features_;
  const int64_t rows = cached_xhat_.dim(0);
  ITASK_CHECK(grad_out.numel() == rows * c, "LayerNorm: grad size mismatch");
  Tensor dx({rows, c});
  auto g = grad_out.data();
  auto xh = cached_xhat_.data();
  auto rs = cached_rstd_.data();
  auto gam = gamma_.value.data();
  auto dgam = gamma_.grad.data();
  auto dbet = beta_.grad.data();
  auto dxo = dx.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = g.data() + r * c;
    const float* xrow = xh.data() + r * c;
    float* dxrow = dxo.data() + r * c;
    // dL/dxhat = g * gamma; then the standard layernorm backward:
    // dx = rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    float mean_dxh = 0.0f, mean_dxh_xh = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float dxh = grow[j] * gam[j];
      mean_dxh += dxh;
      mean_dxh_xh += dxh * xrow[j];
      dgam[j] += grow[j] * xrow[j];
      dbet[j] += grow[j];
    }
    mean_dxh /= static_cast<float>(c);
    mean_dxh_xh /= static_cast<float>(c);
    for (int64_t j = 0; j < c; ++j) {
      const float dxh = grow[j] * gam[j];
      dxrow[j] = rs[r] * (dxh - mean_dxh - xrow[j] * mean_dxh_xh);
    }
  }
  return dx.reshape(cached_shape_);
}

}  // namespace itask::nn
