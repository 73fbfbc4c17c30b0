// The served detection-ViT layer sequence, defined once. VitModel::infer
// (FP32) and QuantizedVit::forward (INT8) run it over const layers and
// differ only in how a linear layer runs, which they pass in as `apply`:
//  * apply(linear, x, epilogue) returns x·Wᵀ + b with the epilogue fused
//    into the pass that writes it (ops::Epilogue): bias only, bias + GELU
//    (fc1), or bias + residual add into the stream (proj, fc2; nothing is
//    returned). Each activation is written once.
//  * apply(heads, patch_feats, kHeadEpilogues) runs the head bank, the
//    five heads that read patch_feats, and returns their outputs in
//    kHeadKeys order. The FP32 bank runs its heads one after another; the
//    INT8 bank quantizes patch_feats once and runs one GEMM over their
//    stacked weights.
// The graph also reports every arithmetic step it runs to a `sink`
// argument (GraphEvent below). Serving passes NoSink, which compiles to
// nothing; vit::build_workload records the events to describe the same
// layer list to the accelerator and GPU models, and the QuantizedVit
// constructor feeds each linear's input to its calibrator (INT8 calibration
// is a sink on the FP32 graph). A new layer is added here and nowhere else.
// Under a bound ArenaScope the graph keeps only the residual stream live
// across sections: an ArenaMark releases the patch embedding's and each
// encoder block's temporaries (tensor/arena.h), so the serving workspace
// does not grow with depth.
#pragma once

#include <array>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "tensor/arena.h"
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

/// The kinds of arithmetic step run_graph runs. Data movement (patchify,
/// patch_tokens) is not a step: it only reorders what the next step reads.
enum class Step { kLinear, kAssembleTokens, kLayerNorm, kAttention };

/// One step run_graph ran, reported to its sink right after the step, in
/// execution order. `name` is the step's name ("patch_embed", "ln1",
/// "qkv", "attention", "proj", "ln2", "fc1", "fc2", "final_ln", a
/// kHeadKeys entry, "box_fc2") and `block` its encoder block (kNoBlock
/// outside the blocks). `input` is what the step read and `output` what it
/// wrote: for a linear with a residual epilogue that is the stream it
/// added into. `epilogue` is the linear's (bias() for the other steps).
/// The head bank is one apply and reports one event per head. The tensors
/// are valid only during the call.
struct GraphEvent {
  static constexpr int64_t kNoBlock = -1;
  Step step;
  const char* name;
  int64_t block;
  const Tensor& input;
  const Tensor& output;
  ops::Epilogue epilogue;
};

/// The sink that serving passes: ignores every event.
struct NoSink {
  void operator()(const GraphEvent&) const {}
};

/// Runs images [B, channels, image_size, image_size] through `layers` (a
/// VitLayers), running each linear layer as apply(layer, x, epilogue) and
/// the head bank as apply(heads, x, kHeadEpilogues), and calling
/// sink(GraphEvent) after each step.
template <typename Layers, typename Apply, typename Sink>
VitOutput run_graph(const ViTConfig& config, const Layers& layers,
                    const Tensor& images, Apply&& apply, Sink&& sink) {
  ITASK_CHECK(images.ndim() == 4 && images.dim(1) == config.channels &&
                  images.dim(2) == config.image_size &&
                  images.dim(3) == config.image_size,
              "vit: images must be [B, channels, image_size, image_size]");
  constexpr int64_t kTop = GraphEvent::kNoBlock;
  const auto report = [&](Step kind, const char* name, int64_t block,
                          const Tensor& in, const Tensor& out) {
    sink(GraphEvent{kind, name, block, in, out, ops::Epilogue::bias()});
  };
  const auto linear = [&](const char* name, int64_t block, const auto& layer,
                          const Tensor& in, const ops::Epilogue& ep) {
    Tensor y = apply(layer, in, ep);
    sink(GraphEvent{Step::kLinear, name, block, in,
                    ep.residual != nullptr ? *ep.residual : y, ep});
    return y;
  };

  // The residual stream [B, T+1, D] is allocated first and is the only
  // tensor a section leaves behind: the ArenaMarks below release the patch
  // embedding's temporaries, then each block's, under a bound ArenaScope.
  Tensor x = Tensor::uninitialized(
      {images.dim(0), config.tokens() + 1, config.dim});
  {
    const ArenaMark mark;
    const Tensor patches = nn::patchify(images, config.patch_size);
    const Tensor embedded = linear("patch_embed", kTop, layers.patch_proj,
                                   patches, ops::Epilogue::bias());
    nn::assemble_tokens(embedded, layers.cls, layers.pos, x);
    report(Step::kAssembleTokens, "assemble_tokens", kTop, embedded, x);
  }
  for (int64_t i = 0; i < config.depth; ++i) {
    const ArenaMark mark;
    const auto& blk = layers.blocks[i];
    const Tensor ln1 = nn::layernorm_affine(x, blk.ln1_gamma, blk.ln1_beta);
    report(Step::kLayerNorm, "ln1", i, x, ln1);
    const Tensor qkv = linear("qkv", i, blk.qkv, ln1, ops::Epilogue::bias());
    const Tensor ctx = nn::attention_ctx(qkv, config.heads);
    report(Step::kAttention, "attention", i, qkv, ctx);
    linear("proj", i, blk.proj, ctx, ops::Epilogue::add_to(x));
    const Tensor ln2 = nn::layernorm_affine(x, blk.ln2_gamma, blk.ln2_beta);
    report(Step::kLayerNorm, "ln2", i, x, ln2);
    const Tensor hidden =
        linear("fc1", i, blk.fc1, ln2, ops::Epilogue::bias_gelu());
    linear("fc2", i, blk.fc2, hidden, ops::Epilogue::add_to(x));
  }
  Tensor tokens =
      nn::layernorm_affine(x, layers.final_ln_gamma, layers.final_ln_beta);
  report(Step::kLayerNorm, "final_ln", kTop, x, tokens);
  const Tensor patch_feats = nn::patch_tokens(tokens);
  HeadOutputs heads = apply(layers.heads, patch_feats, kHeadEpilogues);
  for (size_t h = 0; h < kHeadSlots; ++h)
    sink(GraphEvent{Step::kLinear, kHeadKeys[h], kTop, patch_feats, heads[h],
                    kHeadEpilogues[h]});
  VitOutput out;
  out.objectness = std::move(heads[kObjHead]);
  out.class_logits = std::move(heads[kClsHead]);
  out.attr_logits = std::move(heads[kAttrHead]);
  out.box_deltas = linear("box_fc2", kTop, layers.box_fc2, heads[kBoxFc1],
                          ops::Epilogue::bias());
  out.relevance = std::move(heads[kRelHead]);
  out.features = std::move(tokens);
  return out;
}

}  // namespace itask::vit
