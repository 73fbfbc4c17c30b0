#include "nn/attention.h"

#include <cmath>

#include "tensor/ops.h"

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

AttentionCore attention_core(const Tensor& qkv, int64_t heads) {
  ITASK_CHECK(qkv.ndim() == 3 && qkv.dim(2) % 3 == 0,
              "attention_core: need [B, T, 3D]");
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  // Slice out Q, K, V as [B, T, D] each.
  Tensor q({b, t, d}), k({b, t, d}), v({b, t, d});
  {
    auto src = qkv.data();
    auto qd = q.data(), kd = k.data(), vd = v.data();
    for (int64_t r = 0; r < b * t; ++r) {
      const float* row = src.data() + r * 3 * d;
      std::copy(row, row + d, qd.data() + r * d);
      std::copy(row + d, row + 2 * d, kd.data() + r * d);
      std::copy(row + 2 * d, row + 3 * d, vd.data() + r * d);
    }
  }
  AttentionCore core;
  core.q = split_heads(q, heads);  // [B*H, T, hd]
  core.k = split_heads(k, heads);
  core.v = split_heads(v, heads);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d / heads));
  Tensor scores =
      ops::mul_scalar(ops::bmm_bt(core.q, core.k), scale);  // [B*H, T, T]
  core.attn = ops::softmax_lastdim(scores);
  core.ctx = merge_heads(ops::bmm(core.attn, core.v), heads);  // [B, T, D]
  return core;
}

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t heads, Rng& rng)
    : dim_(dim),
      heads_(heads),
      scale_(1.0f / std::sqrt(static_cast<float>(dim / heads))),
      qkv_(dim, 3 * dim, rng),
      proj_(dim, dim, rng) {
  ITASK_CHECK(dim % heads == 0, "MultiHeadAttention: dim % heads != 0");
  register_child("qkv", qkv_);
  register_child("proj", proj_);
}

Tensor MultiHeadAttention::forward(const Tensor& tokens) {
  ITASK_CHECK(tokens.ndim() == 3 && tokens.dim(2) == dim_,
              "MultiHeadAttention: need [B, T, dim]");
  AttentionCore core = attention_core(qkv_.forward(tokens), heads_);
  cached_q_ = std::move(core.q);
  cached_k_ = std::move(core.k);
  cached_v_ = std::move(core.v);
  cached_attn_ = std::move(core.attn);
  cached_batch_ = tokens.dim(0);
  return proj_.forward(core.ctx);
}

Tensor MultiHeadAttention::infer(const Tensor& tokens) const {
  ITASK_CHECK(tokens.ndim() == 3 && tokens.dim(2) == dim_,
              "MultiHeadAttention: need [B, T, dim]");
  return proj_.infer(attention_core(qkv_.infer(tokens), heads_).ctx);
}

Tensor MultiHeadAttention::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_attn_.empty(),
              "MultiHeadAttention: backward before forward");
  const int64_t b = cached_batch_;
  const int64_t t = cached_q_.dim(1);
  Tensor d_ctx_merged = proj_.backward(grad_out);          // [B, T, D]
  Tensor d_ctx = split_heads(d_ctx_merged, heads_);        // [B*H, T, hd]
  // ctx = attn · v
  Tensor d_attn = ops::bmm_bt(d_ctx, cached_v_);           // [B*H, T, T]
  Tensor d_v = ops::bmm_at(cached_attn_, d_ctx);           // [B*H, T, hd]
  // attn = softmax(scores)
  Tensor d_scores = ops::softmax_backward_lastdim(cached_attn_, d_attn);
  d_scores = ops::mul_scalar(d_scores, scale_);
  // scores = q · kᵀ
  Tensor d_q = ops::bmm(d_scores, cached_k_);              // [B*H, T, hd]
  Tensor d_k = ops::bmm_at(d_scores, cached_q_);           // [B*H, T, hd]
  // Re-pack [dq|dk|dv] into the qkv gradient layout [B, T, 3D].
  Tensor dq_m = merge_heads(d_q, heads_);
  Tensor dk_m = merge_heads(d_k, heads_);
  Tensor dv_m = merge_heads(d_v, heads_);
  Tensor d_qkv({b, t, 3 * dim_});
  {
    auto dst = d_qkv.data();
    auto qd = dq_m.data(), kd = dk_m.data(), vd = dv_m.data();
    for (int64_t r = 0; r < b * t; ++r) {
      float* row = dst.data() + r * 3 * dim_;
      std::copy(qd.data() + r * dim_, qd.data() + (r + 1) * dim_, row);
      std::copy(kd.data() + r * dim_, kd.data() + (r + 1) * dim_, row + dim_);
      std::copy(vd.data() + r * dim_, vd.data() + (r + 1) * dim_,
                row + 2 * dim_);
    }
  }
  return qkv_.backward(d_qkv);
}

}  // namespace itask::nn
