// The served detection-ViT layer sequence, defined once. VitModel::infer
// (FP32) and QuantizedVit::forward / calibrate (INT8) run it and differ
// only in how a linear layer runs, which they pass in as `apply`.
#pragma once

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "tensor/ops.h"
#include "vit/model.h"

namespace itask::vit {

/// One encoder block's parameters. `Param` and `Linear` are stored types
/// (INT8: Tensor, QLinearLayer) or references into a model (FP32: const
/// Tensor&, const nn::Linear&; a copy would double the weights and go stale
/// after training).
template <typename Param, typename Linear>
struct VitBlock {
  Param ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
  Linear qkv, proj, fc1, fc2;
};

/// Every parameter run_graph reads; blocks[i] is a VitBlock, i < depth.
template <typename Param, typename Linear, typename Blocks>
struct VitLayers {
  Linear patch_proj;
  Param cls, pos;  // [D], [T+1, D]
  Blocks blocks;
  Param final_ln_gamma, final_ln_beta;
  Linear obj_head, cls_head, attr_head, box_fc1, box_fc2, rel_head;
};

/// Runs images [B, channels, image_size, image_size] through `layers` (a
/// VitLayers), running each linear layer as apply(layer, x). Const `layers`
/// serve; mutable ones let `apply` update them (INT8 calibration).
template <typename Layers, typename Apply>
VitOutput run_graph(const ViTConfig& config, Layers& layers,
                    const Tensor& images, Apply&& apply) {
  ITASK_CHECK(images.ndim() == 4 && images.dim(1) == config.channels &&
                  images.dim(2) == config.image_size &&
                  images.dim(3) == config.image_size,
              "vit: images must be [B, channels, image_size, image_size]");
  Tensor x = nn::assemble_tokens(
      apply(layers.patch_proj, nn::patchify(images, config.patch_size)),
      layers.cls, layers.pos);  // [B, T+1, D]
  for (int64_t i = 0; i < config.depth; ++i) {
    auto&& blk = layers.blocks[i];
    Tensor normed = nn::layernorm_affine(x, blk.ln1_gamma, blk.ln1_beta);
    Tensor ctx = nn::attention_core(apply(blk.qkv, normed), config.heads).ctx;
    x = ops::add(x, apply(blk.proj, ctx));
    Tensor normed2 = nn::layernorm_affine(x, blk.ln2_gamma, blk.ln2_beta);
    x = ops::add(x, apply(blk.fc2, ops::gelu(apply(blk.fc1, normed2))));
  }
  Tensor tokens =
      nn::layernorm_affine(x, layers.final_ln_gamma, layers.final_ln_beta);
  Tensor patch_feats = nn::patch_tokens(tokens);  // [B, T, D]
  VitOutput out;
  out.objectness = apply(layers.obj_head, patch_feats);
  out.class_logits = apply(layers.cls_head, patch_feats);
  out.attr_logits = apply(layers.attr_head, patch_feats);
  out.box_deltas =
      apply(layers.box_fc2, ops::gelu(apply(layers.box_fc1, patch_feats)));
  out.relevance = apply(layers.rel_head, patch_feats);
  out.features = std::move(tokens);
  return out;
}

}  // namespace itask::vit
