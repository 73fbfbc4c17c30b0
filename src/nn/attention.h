// Multi-head self-attention with a hand-derived backward pass.
#pragma once

#include "nn/linear.h"
#include "nn/module.h"

namespace itask::nn {

/// Rearranges [B, T, H*hd] into [B*H, T, hd] (exposed for tests).
Tensor split_heads(const Tensor& x, int64_t heads);

/// Inverse of split_heads: [B*H, T, hd] -> [B, T, H*hd].
Tensor merge_heads(const Tensor& x, int64_t heads);

/// What attention_core computes: the probabilities backward needs and the
/// merged context the output projection consumes.
struct AttentionCore {
  Tensor attn;  // softmax(scale·QKᵀ), [B*H, T, T]
  Tensor ctx;   // attn·V with heads merged, [B, T, H*hd]
};

/// The one definition of scaled-dot-product attention over a fused QKV
/// projection [B, T, 3D]: softmax(QKᵀ/√hd)·V per (image, head), reading Q,
/// K and V in place and writing ctx straight into the merged layout.
/// Bit-identical to composing slice, split_heads, bmm_bt, mul_scalar,
/// softmax_lastdim, bmm and merge_heads. Shared by MultiHeadAttention::
/// forward and the serving graph (vit/graph.h), so training and both
/// served configurations cannot drift apart. Scratch comes from the bound
/// arena, if any.
AttentionCore attention_core(const Tensor& qkv, int64_t heads);

/// attention_core's ctx alone, bit for bit, for the serving graph: nothing
/// reads the probabilities after the call, so each block of rows' softmax
/// lives in one small scratch strip instead of a [B*H, T, T] tensor.
/// Training's MultiHeadAttention keeps attention_core for its backward.
Tensor attention_ctx(const Tensor& qkv, int64_t heads);

/// attention_core's backward, its twin: given the fused projection qkv
/// [B, T, 3D], the probabilities attn [B*H, T, T] attention_core returned
/// and the context gradient d_ctx [B, T, D], returns d_qkv [B, T, 3D]
/// (dQ|dK|dV). Per (image, head) it reads Q, K, V and d_ctx in place:
/// dP = dC·Vᵀ, dV = Pᵀ·dC, dS = softmax_backward(P, dP)·scale, dQ = dS·K,
/// dK = dSᵀ·Q. Bit-identical to composing slice, split_heads, bmm_bt,
/// bmm_at, softmax_backward_lastdim, mul_scalar, bmm and merge_heads.
/// Scratch comes from the bound arena, if any.
Tensor attention_core_backward(const Tensor& qkv, const Tensor& attn,
                               const Tensor& d_ctx, int64_t heads);

/// Scaled-dot-product multi-head self-attention over token sequences
/// shaped [B, T, D]. QKV and output projections are Linear layers.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t dim, int64_t heads, Rng& rng);

  Tensor forward(const Tensor& tokens);
  /// Consumes forward's cache: a second backward needs a new forward.
  Tensor backward(const Tensor& grad_out);

  int64_t dim() const { return dim_; }
  int64_t heads() const { return heads_; }
  const Linear& qkv() const { return qkv_; }
  const Linear& proj() const { return proj_; }

  /// Attention probabilities of the most recent forward pass, laid out
  /// [B*H, T, T] (rows sum to 1). Valid from a forward until its backward;
  /// empty otherwise.
  const Tensor& last_attention() const { return cached_attn_; }

 private:
  int64_t dim_;
  int64_t heads_;
  Linear qkv_;
  Linear proj_;
  // Cached activations for backward, which consumes them: the fused
  // projection [B, T, 3D] and the probabilities [B*H, T, T].
  Tensor cached_qkv_, cached_attn_;
};

}  // namespace itask::nn
