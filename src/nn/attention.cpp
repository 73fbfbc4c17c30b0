#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace itask::nn {

Tensor split_heads(const Tensor& x, int64_t heads) {
  ITASK_CHECK(x.ndim() == 3, "split_heads: need [B, T, D]");
  const int64_t b = x.dim(0), t = x.dim(1), d = x.dim(2);
  ITASK_CHECK(d % heads == 0, "split_heads: dim not divisible by heads");
  const int64_t hd = d / heads;
  Tensor out({b * heads, t, hd});
  auto in = x.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t h = 0; h < heads; ++h)
      for (int64_t ti = 0; ti < t; ++ti) {
        const float* src = in.data() + (bi * t + ti) * d + h * hd;
        float* dst = o.data() + ((bi * heads + h) * t + ti) * hd;
        std::copy(src, src + hd, dst);
      }
  return out;
}

Tensor merge_heads(const Tensor& x, int64_t heads) {
  ITASK_CHECK(x.ndim() == 3, "merge_heads: need [B*H, T, hd]");
  const int64_t bh = x.dim(0), t = x.dim(1), hd = x.dim(2);
  ITASK_CHECK(bh % heads == 0, "merge_heads: batch not divisible by heads");
  const int64_t b = bh / heads;
  const int64_t d = heads * hd;
  Tensor out({b, t, d});
  auto in = x.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t h = 0; h < heads; ++h)
      for (int64_t ti = 0; ti < t; ++ti) {
        const float* src = in.data() + ((bi * heads + h) * t + ti) * hd;
        float* dst = o.data() + (bi * t + ti) * d + h * hd;
        std::copy(src, src + hd, dst);
      }
  return out;
}

namespace {

// attention_core repeats, per output element, the arithmetic the packed GEMM
// (tensor/gemm.cpp) and ops::softmax_lastdim gave the composed path, so its
// bits match it: a dot product is an fma chain from 0 in ascending k per
// kKC slab, each slab added to a total that starts at 0 (the micro-kernel's
// `acc += a·b` contracts to an fma under -march=native; the explicit fma
// repeats it). The 8-lane form repeats the scalar form op for op and covers
// the token and head-dim tails with masked steps; the scalar form runs
// everything on builds without AVX2/FMA.

/// Σ_p a[p]·b[p·ldb], p ∈ [0, k), summed as the GEMM micro-kernel sums it.
[[maybe_unused]] float gemm_dot(const float* a, const float* b, int64_t ldb,
                                int64_t k) {
  float total = 0.0f;
  for (int64_t p0 = 0; p0 < k; p0 += gemm::kKC) {
    const int64_t p1 = std::min(k, p0 + gemm::kKC);
    float acc = 0.0f;
    for (int64_t p = p0; p < p1; ++p) acc = std::fma(a[p], b[p * ldb], acc);
    total += acc;
  }
  return total;
}

/// Rows of Q (or of probabilities) handled together: their fma chains are
/// independent, so they overlap in the pipeline.
constexpr int64_t kRows = 4;

#if defined(__AVX2__) && defined(__FMA__)
/// out[r·ldo + l] = gemm_dot(a + r·lda, b + l, ldb, k)·scale for the
/// n ≤ kRows rows r and the lanes l < lanes ≤ 8 (scale 1 leaves a value as
/// is). Lanes past `lanes` are masked: neither read from b nor stored.
template <bool kMasked>
void gemm_dot8_rows(const float* a, int64_t lda, int64_t n, const float* b,
                    int64_t ldb, int64_t k, int64_t lanes, float scale,
                    float* out, int64_t ldo) {
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int32_t>(lanes)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const float* ar[kRows];  // rows past n repeat the last one, unstored
  for (int64_t r = 0; r < kRows; ++r) ar[r] = a + std::min(r, n - 1) * lda;
  __m256 total[kRows], acc[kRows];
  for (__m256& x : total) x = _mm256_setzero_ps();
  for (int64_t p0 = 0; p0 < k; p0 += gemm::kKC) {
    const int64_t p1 = std::min(k, p0 + gemm::kKC);
    for (__m256& x : acc) x = _mm256_setzero_ps();
    for (int64_t p = p0; p < p1; ++p) {
      const __m256 bv = kMasked ? _mm256_maskload_ps(b + p * ldb, mask)
                                : _mm256_loadu_ps(b + p * ldb);
      for (int64_t r = 0; r < kRows; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(ar[r][p]), bv, acc[r]);
    }
    for (int64_t r = 0; r < kRows; ++r)
      total[r] = _mm256_add_ps(total[r], acc[r]);
  }
  for (int64_t r = 0; r < n; ++r) {
    const __m256 v = _mm256_mul_ps(total[r], _mm256_set1_ps(scale));
    if (kMasked)
      _mm256_maskstore_ps(out + r * ldo, mask, v);
    else
      _mm256_storeu_ps(out + r * ldo, v);
  }
}

/// gemm_dot8_rows over `cols` lanes, eight at a time, the last step masked.
void gemm_dot_rows(const float* a, int64_t lda, int64_t n, const float* b,
                   int64_t ldb, int64_t k, int64_t cols, float scale,
                   float* out, int64_t ldo) {
  int64_t l = 0;
  for (; l + 8 <= cols; l += 8)
    gemm_dot8_rows<false>(a, lda, n, b + l, ldb, k, 8, scale, out + l, ldo);
  if (l < cols)
    gemm_dot8_rows<true>(a, lda, n, b + l, ldb, k, cols - l, scale, out + l,
                         ldo);
}
#endif

/// dst[c·rows + r] = src[r·ld + c] for the rows × cols block at src: the
/// transposed panel whose rows the dot kernels read a column from.
void transpose_panel(const float* src, int64_t ld, int64_t rows, int64_t cols,
                     float* dst) {
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * ld + c];
}

/// out[r·ldo + l] = gemm_dot(a + r·lda, b + l, ldb, k) for the n ≤ kRows
/// rows r and the cols lanes l: the lane kernel where AVX2 is built, the
/// scalar chain elsewhere.
void dot_rows(const float* a, int64_t lda, int64_t n, const float* b,
              int64_t ldb, int64_t k, int64_t cols, float* out, int64_t ldo) {
#if defined(__AVX2__) && defined(__FMA__)
  gemm_dot_rows(a, lda, n, b, ldb, k, cols, 1.0f, out, ldo);
#else
  for (int64_t r = 0; r < n; ++r)
    for (int64_t l = 0; l < cols; ++l)
      out[r * ldo + l] = gemm_dot(a + r * lda, b + l, ldb, k);
#endif
}

/// The loop nest behind attention_core and attention_ctx: returns ctx and
/// writes the probabilities into *attn_out ([B*H, T, T]) when it is given,
/// else row block by row block into one kRows × T scratch strip. A row's
/// arithmetic does not depend on where it is stored, so ctx is the same bit
/// for bit either way.
Tensor attend(const Tensor& qkv, int64_t heads, Tensor* attn_out) {
  ITASK_CHECK(qkv.ndim() == 3 && qkv.dim(2) % 3 == 0,
              "attention_core: need [B, T, 3D]");
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  ITASK_CHECK(heads >= 1 && d % heads == 0,
              "attention_core: dim not divisible by heads");
  const int64_t hd = d / heads;
  const int64_t ld = 3 * d;  // token stride of Q, K and V inside qkv
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  // Every element of both outputs is written below.
  Tensor ctx_out = Tensor::uninitialized({b, t, d});
  if (attn_out != nullptr) *attn_out = Tensor::uninitialized({b * heads, t, t});
  const ArenaMark mark;  // the scratch dies with the call
  ScratchVec<float> strip(attn_out != nullptr ? 0 : kRows * t,
                          /*zero_fill=*/false);
#if defined(__AVX2__) && defined(__FMA__)
  // Kᵀ panel, kt[c·t + j] = K[j][c], rebuilt per (image, head).
  ScratchVec<float> kt(hd * t, /*zero_fill=*/false);
#endif
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t h = 0; h < heads; ++h) {
      const float* q = qkv.data().data() + bi * t * ld + h * hd;
      const float* k = q + d;
      const float* v = q + 2 * d;
      float* attn = attn_out != nullptr
                        ? attn_out->data().data() + (bi * heads + h) * t * t
                        : nullptr;
      float* ctx = ctx_out.data().data() + bi * t * d + h * hd;
#if defined(__AVX2__) && defined(__FMA__)
      for (int64_t j = 0; j < t; ++j)
        for (int64_t c = 0; c < hd; ++c) kt[c * t + j] = k[j * ld + c];
#endif
      for (int64_t i = 0; i < t; i += kRows) {
        const int64_t n = std::min(kRows, t - i);
        const float* qi = q + i * ld;
        float* ai = attn != nullptr ? attn + i * t : strip.data();
        float* ci = ctx + i * d;
        // ai = softmax((qi·Kᵀ)·scale)
#if defined(__AVX2__) && defined(__FMA__)
        gemm_dot_rows(qi, ld, n, kt.data(), t, hd, t, scale, ai, t);
#else
        for (int64_t r = 0; r < n; ++r)
          for (int64_t j = 0; j < t; ++j)
            ai[r * t + j] = gemm_dot(qi + r * ld, k + j * ld, 1, hd) * scale;
#endif
        for (int64_t r = 0; r < n; ++r) ops::softmax_row(ai + r * t, t);
        // ci = ai·V
#if defined(__AVX2__) && defined(__FMA__)
        gemm_dot_rows(ai, t, n, v, ld, t, hd, 1.0f, ci, d);
#else
        for (int64_t r = 0; r < n; ++r)
          for (int64_t c = 0; c < hd; ++c)
            ci[r * d + c] = gemm_dot(ai + r * t, v + c, ld, t);
#endif
      }
    }
  return ctx_out;
}

}  // namespace

Tensor attention_core_backward(const Tensor& qkv, const Tensor& attn,
                               const Tensor& d_ctx, int64_t heads) {
  ITASK_CHECK(qkv.ndim() == 3 && qkv.dim(2) % 3 == 0,
              "attention_core_backward: need qkv [B, T, 3D]");
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  ITASK_CHECK(heads >= 1 && d % heads == 0,
              "attention_core_backward: dim not divisible by heads");
  ITASK_CHECK(attn.shape() == (Shape{b * heads, t, t}),
              "attention_core_backward: need attn [B*H, T, T]");
  ITASK_CHECK(d_ctx.shape() == (Shape{b, t, d}),
              "attention_core_backward: need d_ctx [B, T, D]");
  const int64_t hd = d / heads;
  const int64_t ld = 3 * d;  // token stride of Q, K and V (and dQ, dK, dV)
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  Tensor d_qkv = Tensor::uninitialized({b, t, ld});  // every element is written
  const ArenaMark mark;  // the panels die with the call
  // Per (image, head): Vᵀ, Pᵀ, dS and dSᵀ, so every product reads rows.
  ScratchVec<float> vt(hd * t, /*zero_fill=*/false);
  ScratchVec<float> pt(t * t, /*zero_fill=*/false);
  ScratchVec<float> ds(t * t, /*zero_fill=*/false);
  ScratchVec<float> dst(t * t, /*zero_fill=*/false);
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t h = 0; h < heads; ++h) {
      const float* q = qkv.data().data() + bi * t * ld + h * hd;
      const float* k = q + d;
      const float* v = q + 2 * d;
      const float* p = attn.data().data() + (bi * heads + h) * t * t;
      const float* dc = d_ctx.data().data() + bi * t * d + h * hd;
      float* dq = d_qkv.data().data() + bi * t * ld + h * hd;
      float* dk = dq + d;
      float* dv = dq + 2 * d;
      transpose_panel(v, ld, t, hd, vt.data());
      transpose_panel(p, t, t, t, pt.data());
      // dS = softmax_backward(P, dC·Vᵀ)·scale, each rounding as the
      // composed ops round it.
      for (int64_t i = 0; i < t; i += kRows) {
        const int64_t n = std::min(kRows, t - i);
        dot_rows(dc + i * d, d, n, vt.data(), t, hd, t, ds.data() + i * t, t);
        for (int64_t r = i; r < i + n; ++r) {
          float* row = ds.data() + r * t;
          ops::softmax_backward_row(p + r * t, row, t, row);
          for (int64_t j = 0; j < t; ++j) row[j] *= scale;
        }
      }
      transpose_panel(ds.data(), t, t, t, dst.data());
      for (int64_t i = 0; i < t; i += kRows) {
        const int64_t n = std::min(kRows, t - i);
        dot_rows(pt.data() + i * t, t, n, dc, d, t, hd, dv + i * ld, ld);
        dot_rows(ds.data() + i * t, t, n, k, ld, t, hd, dq + i * ld, ld);
        dot_rows(dst.data() + i * t, t, n, q, ld, t, hd, dk + i * ld, ld);
      }
    }
  return d_qkv;
}

AttentionCore attention_core(const Tensor& qkv, int64_t heads) {
  AttentionCore core;
  core.ctx = attend(qkv, heads, &core.attn);
  return core;
}

Tensor attention_ctx(const Tensor& qkv, int64_t heads) {
  return attend(qkv, heads, nullptr);
}

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t heads, Rng& rng)
    : dim_(dim), heads_(heads), qkv_(dim, 3 * dim, rng), proj_(dim, dim, rng) {
  ITASK_CHECK(dim % heads == 0, "MultiHeadAttention: dim % heads != 0");
  register_child("qkv", qkv_);
  register_child("proj", proj_);
}

Tensor MultiHeadAttention::forward(const Tensor& tokens) {
  ITASK_CHECK(tokens.ndim() == 3 && tokens.dim(2) == dim_,
              "MultiHeadAttention: need [B, T, dim]");
  cached_qkv_ = qkv_.forward(tokens);
  AttentionCore core = attention_core(cached_qkv_, heads_);
  cached_attn_ = std::move(core.attn);
  return proj_.forward(core.ctx);
}

Tensor MultiHeadAttention::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_attn_.empty(),
              "MultiHeadAttention: backward before forward");
  // Backward consumes the cache: a second one needs a new forward.
  const Tensor qkv = std::move(cached_qkv_);
  const Tensor attn = std::move(cached_attn_);
  const Tensor d_ctx = proj_.backward(grad_out);  // [B, T, D]
  return qkv_.backward(attention_core_backward(qkv, attn, d_ctx, heads_));
}

}  // namespace itask::nn
