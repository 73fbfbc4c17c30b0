#include "nn/transformer.h"

#include "tensor/ops.h"

namespace itask::nn {

TransformerBlock::TransformerBlock(int64_t dim, int64_t heads,
                                   int64_t mlp_hidden, Rng& rng)
    : ln1_(dim),
      attn_(dim, heads, rng),
      ln2_(dim),
      fc1_(dim, mlp_hidden, rng),
      fc2_(mlp_hidden, dim, rng) {
  register_child("ln1", ln1_);
  register_child("attn", attn_);
  register_child("ln2", ln2_);
  register_child("fc1", fc1_);
  register_child("fc2", fc2_);
}

Tensor TransformerBlock::forward(const Tensor& tokens) {
  Tensor x = ops::add(tokens, attn_.forward(ln1_.forward(tokens)));
  Tensor mlp = fc2_.forward(gelu_.forward(fc1_.forward(ln2_.forward(x))));
  return ops::add(x, mlp);
}

Tensor TransformerBlock::backward(const Tensor& grad_out) {
  // Through the MLP residual branch.
  Tensor d_mlp = ln2_.backward(
      fc1_.backward(gelu_.backward(fc2_.backward(grad_out))));
  Tensor dx = ops::add(grad_out, d_mlp);
  // Through the attention residual branch.
  Tensor d_attn = ln1_.backward(attn_.backward(dx));
  return ops::add(dx, d_attn);
}

TransformerEncoder::TransformerEncoder(int64_t dim, int64_t depth,
                                       int64_t heads, int64_t mlp_hidden,
                                       Rng& rng)
    : final_ln_(dim) {
  ITASK_CHECK(depth >= 1, "TransformerEncoder: depth must be >= 1");
  for (int64_t i = 0; i < depth; ++i) {
    blocks_.push_back(
        std::make_unique<TransformerBlock>(dim, heads, mlp_hidden, rng));
    register_child("block" + std::to_string(i), *blocks_.back());
  }
  register_child("final_ln", final_ln_);
}

Tensor TransformerEncoder::forward(const Tensor& tokens) {
  Tensor x = tokens;
  for (auto& block : blocks_) x = block->forward(x);
  return final_ln_.forward(x);
}

Tensor TransformerEncoder::backward(const Tensor& grad_out) {
  Tensor g = final_ln_.backward(grad_out);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

}  // namespace itask::nn
