// Pre-LayerNorm transformer encoder blocks and the encoder stack.
#pragma once

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/layernorm.h"
#include "nn/linear.h"

namespace itask::nn {

/// One pre-LN encoder block:
///   x = x + Attn(LN1(x));  x = x + MLP(LN2(x)),  MLP = Linear→GELU→Linear.
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t dim, int64_t heads, int64_t mlp_hidden, Rng& rng);

  Tensor forward(const Tensor& tokens);
  Tensor backward(const Tensor& grad_out);

  const LayerNorm& ln1() const { return ln1_; }
  const MultiHeadAttention& attention() const { return attn_; }
  const LayerNorm& ln2() const { return ln2_; }
  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }

 private:
  LayerNorm ln1_;
  MultiHeadAttention attn_;
  LayerNorm ln2_;
  Linear fc1_;
  Gelu gelu_;
  Linear fc2_;
};

/// A stack of TransformerBlocks followed by a final LayerNorm.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int64_t dim, int64_t depth, int64_t heads,
                     int64_t mlp_hidden, Rng& rng);

  Tensor forward(const Tensor& tokens);
  Tensor backward(const Tensor& grad_out);

  int64_t depth() const { return static_cast<int64_t>(blocks_.size()); }
  const TransformerBlock& block(int64_t i) const {
    ITASK_CHECK(i >= 0 && i < depth(), "TransformerEncoder: bad block index");
    return *blocks_[static_cast<size_t>(i)];
  }
  const LayerNorm& final_ln() const { return final_ln_; }

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm final_ln_;
};

}  // namespace itask::nn
