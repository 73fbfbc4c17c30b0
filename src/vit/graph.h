// The served detection-ViT layer sequence, defined once. VitModel::infer
// (FP32) and QuantizedVit::forward / calibrate (INT8) run it and differ
// only in how a linear layer runs, which they pass in as `apply`:
//  * apply(linear, x, epilogue) returns x·Wᵀ + b with the epilogue fused
//    into the pass that writes it (ops::Epilogue): bias only, bias + GELU
//    (fc1), or bias + residual add into the stream (proj, fc2; nothing is
//    returned). Each activation is written once.
//  * apply(heads, patch_feats, kHeadEpilogues) runs the head bank, the
//    five heads that read patch_feats, and returns their outputs in
//    kHeadKeys order. The FP32 bank runs its heads one after another; the
//    INT8 bank quantizes patch_feats once and runs one GEMM over their
//    stacked weights.
#pragma once

#include <array>

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

/// The head bank's slots: the heads that read patch_feats, in the order a
/// bank holds (and the INT8 bank stacks) them, with their state-dict keys.
enum HeadSlot : size_t {
  kObjHead,
  kClsHead,
  kAttrHead,
  kBoxFc1,
  kRelHead,
  kHeadSlots
};
inline constexpr std::array<const char*, kHeadSlots> kHeadKeys = {
    "obj_head", "cls_head", "attr_head", "box_fc1", "rel_head"};

/// What a head bank's apply returns, one tensor per slot.
using HeadOutputs = std::array<Tensor, kHeadSlots>;
using HeadEpilogues = std::array<ops::Epilogue, kHeadSlots>;
/// Each slot's epilogue: box_fc1 feeds box_fc2 through GELU.
inline constexpr HeadEpilogues kHeadEpilogues = {
    ops::Epilogue::bias(), ops::Epilogue::bias(), ops::Epilogue::bias(),
    ops::Epilogue::bias_gelu(), ops::Epilogue::bias()};

/// Every parameter run_graph reads; blocks[i] is a VitBlock, i < depth;
/// `heads` is the head bank (kHeadKeys), `box_fc2` the layer after it.
template <typename Param, typename Linear, typename Blocks, typename Heads>
struct VitLayers {
  Linear patch_proj;
  Param cls, pos;  // [D], [T+1, D]
  Blocks blocks;
  Param final_ln_gamma, final_ln_beta;
  Heads heads;
  Linear box_fc2;
};

/// Runs images [B, channels, image_size, image_size] through `layers` (a
/// VitLayers), running each linear layer as apply(layer, x, epilogue) and
/// the head bank as apply(heads, x, kHeadEpilogues). Const `layers` serve;
/// mutable ones let `apply` update them (INT8 calibration).
template <typename Layers, typename Apply>
VitOutput run_graph(const ViTConfig& config, Layers& layers,
                    const Tensor& images, Apply&& apply) {
  ITASK_CHECK(images.ndim() == 4 && images.dim(1) == config.channels &&
                  images.dim(2) == config.image_size &&
                  images.dim(3) == config.image_size,
              "vit: images must be [B, channels, image_size, image_size]");
  Tensor x = nn::assemble_tokens(
      apply(layers.patch_proj, nn::patchify(images, config.patch_size),
            ops::Epilogue::bias()),
      layers.cls, layers.pos);  // [B, T+1, D], the residual stream
  for (int64_t i = 0; i < config.depth; ++i) {
    auto&& blk = layers.blocks[i];
    const Tensor qkv =
        apply(blk.qkv, nn::layernorm_affine(x, blk.ln1_gamma, blk.ln1_beta),
              ops::Epilogue::bias());
    apply(blk.proj, nn::attention_core(qkv, config.heads).ctx,
          ops::Epilogue::add_to(x));
    const Tensor hidden =
        apply(blk.fc1, nn::layernorm_affine(x, blk.ln2_gamma, blk.ln2_beta),
              ops::Epilogue::bias_gelu());
    apply(blk.fc2, hidden, ops::Epilogue::add_to(x));
  }
  Tensor tokens =
      nn::layernorm_affine(x, layers.final_ln_gamma, layers.final_ln_beta);
  HeadOutputs heads =
      apply(layers.heads, nn::patch_tokens(tokens), kHeadEpilogues);
  VitOutput out;
  out.objectness = std::move(heads[kObjHead]);
  out.class_logits = std::move(heads[kClsHead]);
  out.attr_logits = std::move(heads[kAttrHead]);
  out.box_deltas =
      apply(layers.box_fc2, heads[kBoxFc1], ops::Epilogue::bias());
  out.relevance = std::move(heads[kRelHead]);
  out.features = std::move(tokens);
  return out;
}

}  // namespace itask::vit
