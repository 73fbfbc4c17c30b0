// The composition nn::attention_core replaced, built from public ops: slice
// Q|K|V, split heads, bmm_bt, × scale, softmax_lastdim, bmm, merge heads.
// attention_core must match it bit for bit; test_attention_vit checks that
// directly and test_quant builds its unfused INT8 forward oracle on it.
#pragma once

#include <cmath>
#include <cstring>

#include "nn/attention.h"
#include "tensor/ops.h"

namespace itask {

inline nn::AttentionCore composed_attention(const Tensor& qkv,
                                            int64_t heads) {
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  Tensor part[3] = {Tensor({b, t, d}), Tensor({b, t, d}), Tensor({b, t, d})};
  for (int64_t r = 0; r < b * t; ++r)
    for (int s = 0; s < 3; ++s)
      std::memcpy(part[s].data().data() + r * d,
                  qkv.data().data() + (r * 3 + s) * d, d * sizeof(float));
  const Tensor q = nn::split_heads(part[0], heads);
  const Tensor k = nn::split_heads(part[1], heads);
  const Tensor v = nn::split_heads(part[2], heads);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d / heads));
  nn::AttentionCore core;
  core.attn = ops::softmax_lastdim(ops::mul_scalar(ops::bmm_bt(q, k), scale));
  core.ctx = nn::merge_heads(ops::bmm(core.attn, v), heads);
  return core;
}

}  // namespace itask
