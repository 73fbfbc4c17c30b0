#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>

#include "tensor/gemm.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace itask::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  ITASK_CHECK(a.shape() == b.shape(),
              std::string(op) + ": shape mismatch " +
                  shape_to_string(a.shape()) + " vs " +
                  shape_to_string(b.shape()));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  auto o = out.data();
  auto bd = b.data();
  for (size_t i = 0; i < o.size(); ++i) o[i] += bd[i];
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a;
  for (float& v : out.data()) v *= s;
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  auto ad = a.data();
  auto bd = b.data();
  for (size_t i = 0; i < ad.size(); ++i) ad[i] += bd[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  auto ad = a.data();
  auto bd = b.data();
  for (size_t i = 0; i < ad.size(); ++i) ad[i] += alpha * bd[i];
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul: need 2-D operands");
  ITASK_CHECK(a.dim(1) == b.dim(0), "matmul: inner dimension mismatch");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  gemm::gemm_nn(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

namespace {

template <typename Fn>
Tensor batched(const Tensor& a, int64_t m, int64_t n, Fn&& per_batch) {
  const int64_t batches = a.dim(0);
  Tensor out({batches, m, n});
  for (int64_t i = 0; i < batches; ++i) per_batch(i, out);
  return out;
}

}  // namespace

Tensor bmm(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 3 && b.ndim() == 3, "bmm: need 3-D operands");
  ITASK_CHECK(a.dim(0) == b.dim(0), "bmm: batch mismatch");
  ITASK_CHECK(a.dim(2) == b.dim(1), "bmm: inner dimension mismatch");
  const int64_t m = a.dim(1), k = a.dim(2), n = b.dim(2);
  auto ad = a.data();
  auto bd = b.data();
  return batched(a, m, n, [&](int64_t i, Tensor& out) {
    gemm::gemm_nn(ad.data() + i * m * k, bd.data() + i * k * n,
                  out.data().data() + i * m * n, m, k, n);
  });
}

Tensor bmm_bt(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 3 && b.ndim() == 3, "bmm_bt: need 3-D operands");
  ITASK_CHECK(a.dim(0) == b.dim(0), "bmm_bt: batch mismatch");
  ITASK_CHECK(a.dim(2) == b.dim(2), "bmm_bt: inner dimension mismatch");
  const int64_t m = a.dim(1), k = a.dim(2), n = b.dim(1);
  auto ad = a.data();
  auto bd = b.data();
  return batched(a, m, n, [&](int64_t i, Tensor& out) {
    gemm::gemm_bt(ad.data() + i * m * k, bd.data() + i * n * k,
                  out.data().data() + i * m * n, m, k, n);
  });
}

Tensor bmm_at(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 3 && b.ndim() == 3, "bmm_at: need 3-D operands");
  ITASK_CHECK(a.dim(0) == b.dim(0), "bmm_at: batch mismatch");
  ITASK_CHECK(a.dim(1) == b.dim(1), "bmm_at: inner dimension mismatch");
  const int64_t k = a.dim(1), m = a.dim(2), n = b.dim(2);
  auto ad = a.data();
  auto bd = b.data();
  return batched(a, m, n, [&](int64_t i, Tensor& out) {
    gemm::gemm_at(ad.data() + i * k * m, bd.data() + i * k * n,
                  out.data().data() + i * m * n, m, k, n);
  });
}

namespace {

// GELU has ONE arithmetic, the tanh approximation written as a logistic:
// 0.5·x·(1 + tanh u) = x·σ(2u) = x / (1 + exp(−2u)), u = √(2/π)(x + k·x³),
// on one exp routine below. It has a scalar form and an 8-lane AVX2 form
// that must stay bit-identical: every multiply-add is an explicit fma (so
// the compiler's contraction setting cannot make the two drift), and each
// lane function repeats its scalar twin op for op. The scalar form runs the
// tail and the whole tensor on builds without AVX2/FMA.
//
// Edge values: NaN → NaN, +inf → +inf and −inf → −inf; finite x never
// gives NaN, because exp's argument is clamped, so σ stays in
// [1/FLT_MAX, 1] even when x³ overflows.

constexpr float kGeluC = 0.7978845608028654f;  // √(2/π)
constexpr float kGeluK = 0.044715f;

// exp(x) to ≤ 1.06 ulp against a double exp on [−87, 88]. The argument is
// clamped to [ln FLT_MIN, ln FLT_MAX], so the result is always a finite,
// normal float, and NaN maps to 0 first (clamping NaN returns NaN, and
// converting that to an integer is undefined). n = nearest(x·log2 e);
// r = x − n·ln 2 in two Cody–Waite steps, |r| ≤ ln2/2; e^r by a degree-6
// minimax polynomial; 2^n by adding n to the exponent bits.
constexpr float kExpLo = -87.33654f;
constexpr float kExpHi = 88.72283f;
constexpr float kLog2e = 1.44269504f;
constexpr float kLn2Hi = 0.693359375f;  // ln 2 = kLn2Hi + kLn2Lo
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP[] = {1.383654540e-3f, 8.375054225e-3f, 4.166824371e-2f,
                           1.666641682e-1f, 4.999999106e-1f, 1.0f, 1.0f};

float exp_clamped(float x) {
  if (std::isnan(x)) x = 0.0f;
  x = std::clamp(x, kExpLo, kExpHi);
  const float n = std::nearbyint(x * kLog2e);
  float r = std::fma(n, -kLn2Hi, x);
  r = std::fma(n, -kLn2Lo, r);
  float p = kExpP[0];
  for (size_t i = 1; i < std::size(kExpP); ++i) p = std::fma(p, r, kExpP[i]);
  int32_t bits = 0;
  std::memcpy(&bits, &p, sizeof bits);
  bits += static_cast<int32_t>(n) * (1 << 23);
  std::memcpy(&p, &bits, sizeof p);
  return p;
}

// exp(−2u): the logistic's denominator term, shared by gelu and gelu_grad,
// with u = √(2/π)·((k·x)·x·x + x) and that last add fused.
float gelu_exp(float x) {
  const float u = kGeluC * std::fma(kGeluK * x * x, x, x);
  return exp_clamped(-2.0f * u);
}

float gelu_scalar(float x) { return x / (1.0f + gelu_exp(x)); }

// d/dx x·σ(2u) = σ + x·σ(1−σ)·2u′, 2u′ = 2√(2/π)(1 + 3k·x²). 1 − σ is
// taken as e·σ (e = exp(−2u)), which does not cancel as σ → 1.
float gelu_slope_scalar(float x) {
  const float e = gelu_exp(x);
  const float s = 1.0f / (1.0f + e);
  const float du2 = (2.0f * kGeluC) * std::fma(x * x, 3.0f * kGeluK, 1.0f);
  return std::fma(x * (s * (e * s)), du2, s);
}

#if defined(__AVX2__) && defined(__FMA__)
__m256 exp_clamped(__m256 x) {
  x = _mm256_and_ps(x, _mm256_cmp_ps(x, x, _CMP_ORD_Q));  // NaN → 0
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(kExpLo)),
                    _mm256_set1_ps(kExpHi));
  const __m256 n =
      _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpP[0]);
  for (size_t i = 1; i < std::size(kExpP); ++i)
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP[i]));
  const __m256i scale = _mm256_slli_epi32(_mm256_cvtps_epi32(n), 23);
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(p), scale));
}

__m256 gelu_exp(__m256 x) {
  const __m256 kx = _mm256_mul_ps(_mm256_set1_ps(kGeluK), x);
  const __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluC),
                                 _mm256_fmadd_ps(_mm256_mul_ps(kx, x), x, x));
  return exp_clamped(_mm256_mul_ps(_mm256_set1_ps(-2.0f), u));
}

__m256 gelu_lanes(__m256 x) {
  return _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0f), gelu_exp(x)));
}

__m256 gelu_slope_lanes(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = gelu_exp(x);
  const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, e));
  const __m256 du2 = _mm256_mul_ps(
      _mm256_set1_ps(2.0f * kGeluC),
      _mm256_fmadd_ps(_mm256_mul_ps(x, x), _mm256_set1_ps(3.0f * kGeluK),
                      one));
  return _mm256_fmadd_ps(
      _mm256_mul_ps(x, _mm256_mul_ps(s, _mm256_mul_ps(e, s))), du2, s);
}
#endif

}  // namespace

void gelu_row(float* row, int64_t n) {
  int64_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(row + i, gelu_lanes(_mm256_loadu_ps(row + i)));
#endif
  for (; i < n; ++i) row[i] = gelu_scalar(row[i]);
}

Tensor gelu(const Tensor& a) {
  Tensor out = a;
  gelu_row(out.data().data(), out.numel());
  return out;
}

Tensor gelu_grad(const Tensor& input, const Tensor& grad_out) {
  check_same_shape(input, grad_out, "gelu_grad");
  Tensor out = grad_out;
  auto o = out.data();
  auto in = input.data();
  size_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; i + 8 <= o.size(); i += 8) {
    const __m256 slope = gelu_slope_lanes(_mm256_loadu_ps(&in[i]));
    _mm256_storeu_ps(&o[i], _mm256_mul_ps(_mm256_loadu_ps(&o[i]), slope));
  }
#endif
  for (; i < o.size(); ++i) o[i] *= gelu_slope_scalar(in[i]);
  return out;
}

Tensor apply_epilogue(Tensor y, const Epilogue& ep) {
  if (ep.residual != nullptr) {
    add_inplace(*ep.residual, y);
    return Tensor();
  }
  if (ep.gelu) gelu_row(y.data().data(), y.numel());
  return y;
}

Tensor sigmoid(const Tensor& a) {
  Tensor out = a;
  for (float& v : out.data()) v = 1.0f / (1.0f + std::exp(-v));
  return out;
}

void softmax_row(float* row, int64_t n) {
  float mx = row[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float denom = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - mx);
    denom += row[j];
  }
  const float inv = 1.0f / denom;
  for (int64_t j = 0; j < n; ++j) row[j] *= inv;
}

Tensor softmax_lastdim(const Tensor& a) {
  ITASK_CHECK(a.ndim() >= 1, "softmax_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  Tensor out = a;
  auto o = out.data();
  for (int64_t r = 0; r < rows; ++r) softmax_row(o.data() + r * c, c);
  return out;
}

Tensor log_softmax_lastdim(const Tensor& a) {
  ITASK_CHECK(a.ndim() >= 1, "log_softmax_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  Tensor out = a;
  auto o = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = o.data() + r * c;
    float mx = row[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < c; ++j) denom += std::exp(row[j] - mx);
    const float lse = mx + std::log(denom);
    for (int64_t j = 0; j < c; ++j) row[j] -= lse;
  }
  return out;
}

void softmax_backward_row(const float* y, const float* g, int64_t n,
                          float* out) {
  float dot = 0.0f;
  const int64_t rounded_terms = n / 4 * 4;
  for (int64_t j = 0; j < rounded_terms; ++j) dot += rounded(y[j] * g[j]);
  for (int64_t j = rounded_terms; j < n; ++j) dot = std::fma(y[j], g[j], dot);
  for (int64_t j = 0; j < n; ++j) out[j] = y[j] * (g[j] - dot);
}

Tensor softmax_backward_lastdim(const Tensor& y, const Tensor& g) {
  check_same_shape(y, g, "softmax_backward_lastdim");
  const int64_t c = y.dim(y.ndim() - 1);
  const int64_t rows = y.numel() / c;
  Tensor out = Tensor::uninitialized(y.shape());  // every row is written
  const float* yd = y.data().data();
  const float* gd = g.data().data();
  float* o = out.data().data();
  for (int64_t r = 0; r < rows; ++r)
    softmax_backward_row(yd + r * c, gd + r * c, c, o + r * c);
  return out;
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  ITASK_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

Tensor stack(const std::vector<Tensor>& parts) {
  ITASK_CHECK(!parts.empty(), "stack: empty input");
  const Shape& sub = parts.front().shape();
  Shape shape;
  shape.push_back(static_cast<int64_t>(parts.size()));
  shape.insert(shape.end(), sub.begin(), sub.end());
  Tensor out(std::move(shape));
  for (size_t i = 0; i < parts.size(); ++i) {
    ITASK_CHECK(parts[i].shape() == sub, "stack: shape mismatch");
    out.set_index(static_cast<int64_t>(i), parts[i]);
  }
  return out;
}

}  // namespace itask::ops
