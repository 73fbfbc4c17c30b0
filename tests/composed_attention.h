// The compositions nn::attention_core and nn::attention_core_backward
// replaced, built from public ops: slice Q|K|V, split heads, bmm_bt,
// × scale, softmax_lastdim, bmm, merge heads, and their backward. Both
// kernels must match them bit for bit; test_attention_vit checks that
// directly and test_quant builds its unfused INT8 forward oracle on the
// forward.
#pragma once

#include <cmath>
#include <cstring>

#include "nn/attention.h"
#include "tensor/ops.h"

namespace itask {

/// Q, K and V of the fused projection [B, T, 3D], each split into heads
/// [B*H, T, hd].
struct ComposedHeads {
  Tensor q, k, v;
};

inline ComposedHeads composed_heads(const Tensor& qkv, int64_t heads) {
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  Tensor part[3] = {Tensor({b, t, d}), Tensor({b, t, d}), Tensor({b, t, d})};
  for (int64_t r = 0; r < b * t; ++r)
    for (int s = 0; s < 3; ++s)
      std::memcpy(part[s].data().data() + r * d,
                  qkv.data().data() + (r * 3 + s) * d, d * sizeof(float));
  return {nn::split_heads(part[0], heads), nn::split_heads(part[1], heads),
          nn::split_heads(part[2], heads)};
}

inline float composed_scale(const Tensor& qkv, int64_t heads) {
  return 1.0f / std::sqrt(static_cast<float>(qkv.dim(2) / 3 / heads));
}

inline nn::AttentionCore composed_attention(const Tensor& qkv,
                                            int64_t heads) {
  const auto [q, k, v] = composed_heads(qkv, heads);
  const float scale = composed_scale(qkv, heads);
  nn::AttentionCore core;
  core.attn = ops::softmax_lastdim(ops::mul_scalar(ops::bmm_bt(q, k), scale));
  core.ctx = nn::merge_heads(ops::bmm(core.attn, v), heads);
  return core;
}

/// The gradient of the fused projection, d_qkv [B, T, 3D], given the
/// probabilities attn [B*H, T, T] and the context gradient d_ctx [B, T, D].
inline Tensor composed_attention_backward(const Tensor& qkv,
                                          const Tensor& attn,
                                          const Tensor& d_ctx,
                                          int64_t heads) {
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  const auto [q, k, v] = composed_heads(qkv, heads);
  const Tensor dc = nn::split_heads(d_ctx, heads);  // [B*H, T, hd]
  // ctx = attn · v
  const Tensor d_attn = ops::bmm_bt(dc, v);
  const Tensor d_v = ops::bmm_at(attn, dc);
  // attn = softmax(scores), scores = (q · kᵀ) · scale
  const Tensor d_scores = ops::mul_scalar(
      ops::softmax_backward_lastdim(attn, d_attn), composed_scale(qkv, heads));
  const Tensor part[3] = {nn::merge_heads(ops::bmm(d_scores, k), heads),
                          nn::merge_heads(ops::bmm_at(d_scores, q), heads),
                          nn::merge_heads(d_v, heads)};
  Tensor d_qkv({b, t, 3 * d});
  for (int64_t r = 0; r < b * t; ++r)
    for (int s = 0; s < 3; ++s)
      std::memcpy(d_qkv.data().data() + (r * 3 + s) * d,
                  part[s].data().data() + r * d, d * sizeof(float));
  return d_qkv;
}

}  // namespace itask
