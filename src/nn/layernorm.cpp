#include "nn/layernorm.h"

#include <algorithm>
#include <cmath>

#include "tensor/arena.h"
#include "tensor/ops.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace itask::nn {

namespace {

constexpr float kEps = 1e-5f;

/// The one definition of LayerNorm's per-row arithmetic: normalises the `c`
/// values at `x`, writes the normalised row to `xhat` and xhat·γ + β to `y`,
/// and returns 1/sqrt(var + kEps). `xhat` and `y` may alias each other and
/// `x` (every element is read before it is written), which is how a build
/// without AVX2 serves it without materialising xhat; AVX2 builds train and
/// serve through layernorm_lanes, which repeats this arithmetic eight rows
/// wide.
///
/// Every product's rounding is explicit, so no compiler setting (contraction,
/// vectorisation, sanitizers) can change the bits: the mean and variance are
/// summed in order, the first 4⌊c/4⌋ variance terms as rounded d·d and the
/// last c mod 4 as fma(d, d, var), and y = fma(xhat, γ, β). That is what
/// GCC made of the plain C++ form at -O3 -march=native (the variance loop
/// vectorised 8 and 4 wide, its scalar remainder contracted), so trained
/// weights kept their bits when the arithmetic was written out.
[[maybe_unused]] float layernorm_row(const float* x, const float* g,
                                     const float* b, int64_t c, float* xhat,
                                     float* y) {
  float mean = 0.0f;
  for (int64_t j = 0; j < c; ++j) mean += x[j];
  mean /= static_cast<float>(c);
  float var = 0.0f;
  const int64_t rounded_terms = c / 4 * 4;
  for (int64_t j = 0; j < rounded_terms; ++j) {
    const float d = x[j] - mean;
    var += ops::rounded(d * d);
  }
  for (int64_t j = rounded_terms; j < c; ++j) {
    const float d = x[j] - mean;
    var = std::fma(d, d, var);
  }
  var /= static_cast<float>(c);
  const float rstd = 1.0f / std::sqrt(var + kEps);
  for (int64_t j = 0; j < c; ++j) {
    xhat[j] = (x[j] - mean) * rstd;
    y[j] = std::fma(xhat[j], g[j], b[j]);
  }
  return rstd;
}

#if defined(__AVX2__) && defined(__FMA__)
// layernorm_row on eight rows at a time, one row per AVX2 lane, op for op
// (LayerNorm.AffineMatchesForwardBitForBit pins it).

/// ops::rounded() on eight lanes: the compiler cannot see through the empty
/// asm, so it cannot fuse v's product into the add that consumes it.
inline __m256 rounded(__m256 v) {
  asm("" : "+x"(v));
  return v;
}

/// dst[i·ldd + l] = src[l·lds + i] for the 8×8 block at src.
void transpose8x8(const float* src, int64_t lds, float* dst, int64_t ldd) {
  __m256 r[8], t[8];
  for (int64_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
  for (int64_t i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  for (int64_t i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
  }
  for (int64_t i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ldd,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ldd,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
  }
}

/// The column-major scratch t[j·8 + lane] back out to the first n rows of
/// dst (row stride c).
void store_lanes(const float* t, int64_t c, int64_t n, float* dst) {
  int64_t j = 0;
  if (n == 8)
    for (; j + 8 <= c; j += 8) transpose8x8(t + j * 8, 8, dst + j, c);
  for (; j < c; ++j)
    for (int64_t l = 0; l < n; ++l) dst[l * c + j] = t[j * 8 + l];
}

/// Normalises the n ≤ 8 rows of c values at x (row stride c) into y, over
/// the column-major copy xt[j·8 + lane] (8·c floats of scratch). Lanes past
/// n repeat row n − 1 and are not stored. Training passes `xhat` and `rstd`
/// to keep what backward reads, the normalised rows and each row's
/// 1/sqrt(var + eps); the rows go out through xt[8·c, 16·c).
void layernorm_lanes(const float* x, const float* g, const float* b,
                     int64_t c, int64_t n, float* y, float* xt,
                     float* xhat = nullptr, float* rstd = nullptr) {
  float* xhat_t = xt + 8 * c;
  int64_t j = 0;
  if (n == 8)
    for (; j + 8 <= c; j += 8) transpose8x8(x + j, c, xt + j * 8, 8);
  for (; j < c; ++j)
    for (int64_t l = 0; l < 8; ++l)
      xt[j * 8 + l] = x[std::min(l, n - 1) * c + j];
  const __m256 count = _mm256_set1_ps(static_cast<float>(c));
  __m256 mean = _mm256_setzero_ps();
  for (j = 0; j < c; ++j)
    mean = _mm256_add_ps(mean, _mm256_loadu_ps(xt + j * 8));
  mean = _mm256_div_ps(mean, count);
  __m256 var = _mm256_setzero_ps();
  const int64_t rounded_terms = c / 4 * 4;
  for (j = 0; j < rounded_terms; ++j) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(xt + j * 8), mean);
    var = _mm256_add_ps(var, rounded(_mm256_mul_ps(d, d)));
  }
  for (; j < c; ++j) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(xt + j * 8), mean);
    var = _mm256_fmadd_ps(d, d, var);
  }
  var = _mm256_div_ps(var, count);
  const __m256 rs =
      _mm256_div_ps(_mm256_set1_ps(1.0f),
                    _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(kEps))));
  for (j = 0; j < c; ++j) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xt + j * 8), mean), rs);
    if (xhat != nullptr) _mm256_storeu_ps(xhat_t + j * 8, xh);
    _mm256_storeu_ps(xt + j * 8, _mm256_fmadd_ps(xh, _mm256_set1_ps(g[j]),
                                                 _mm256_set1_ps(b[j])));
  }
  store_lanes(xt, c, n, y);
  if (xhat != nullptr) store_lanes(xhat_t, c, n, xhat);
  if (rstd != nullptr) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, rs);
    std::copy(lanes, lanes + n, rstd);
  }
}
#endif

}  // namespace

Tensor layernorm_affine(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta) {
  ITASK_CHECK(gamma.ndim() == 1 && gamma.shape() == beta.shape(),
              "layernorm_affine: gamma/beta must be matching 1-D");
  const int64_t c = gamma.numel();
  ITASK_CHECK(x.ndim() >= 1 && x.dim(x.ndim() - 1) == c,
              "layernorm_affine: trailing dim mismatch");
  const int64_t rows = x.numel() / c;
  Tensor out = Tensor::uninitialized(x.shape());  // every row is written
  const float* in = x.data().data();
  float* o = out.data().data();
  const float* g = gamma.data().data();
  const float* b = beta.data().data();
#if defined(__AVX2__) && defined(__FMA__)
  const ArenaMark mark;  // the column scratch dies with the call
  ScratchVec<float> xt(8 * c, /*zero_fill=*/false);
  for (int64_t r = 0; r < rows; r += 8)
    layernorm_lanes(in + r * c, g, b, c, std::min<int64_t>(8, rows - r),
                    o + r * c, xt.data());
#else
  for (int64_t r = 0; r < rows; ++r)
    (void)layernorm_row(in + r * c, g, b, c, o + r * c, o + r * c);
#endif
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
  Tensor xhat = Tensor::uninitialized({rows, c});  // every row is written
  Tensor rstd = Tensor::uninitialized({rows});
  Tensor out = Tensor::uninitialized(input.shape());
  const float* in = input.data().data();
  float* xh = xhat.data().data();
  float* rs = rstd.data().data();
  float* o = out.data().data();
  const float* g = gamma_.value.data().data();
  const float* b = beta_.value.data().data();
#if defined(__AVX2__) && defined(__FMA__)
  const ArenaMark mark;  // the column scratch dies with the call
  ScratchVec<float> xt(16 * c, /*zero_fill=*/false);
  for (int64_t r = 0; r < rows; r += 8)
    layernorm_lanes(in + r * c, g, b, c, std::min<int64_t>(8, rows - r),
                    o + r * c, xt.data(), xh + r * c, rs + r);
#else
  for (int64_t r = 0; r < rows; ++r)
    rs[r] = layernorm_row(in + r * c, g, b, c, xh + r * c, o + r * c);
#endif
  cached_xhat_ = std::move(xhat);
  cached_rstd_ = std::move(rstd);
  cached_shape_ = input.shape();
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_xhat_.empty(), "LayerNorm: backward before forward");
  // Backward consumes the cache: a second one needs a new forward.
  const Tensor xhat = std::move(cached_xhat_);
  const Tensor rstd = std::move(cached_rstd_);
  const int64_t c = features_;
  const int64_t rows = xhat.dim(0);
  ITASK_CHECK(grad_out.numel() == rows * c, "LayerNorm: grad size mismatch");
  Tensor dx = Tensor::uninitialized(cached_shape_);  // every row is written
  auto g = grad_out.data();
  auto xh = xhat.data();
  auto rs = rstd.data();
  auto gam = gamma_.value.data();
  auto dgam = gamma_.grad_buffer().data();
  auto dbet = beta_.grad_buffer().data();
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
  return dx;
}

}  // namespace itask::nn
