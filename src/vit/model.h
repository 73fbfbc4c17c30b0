// The detection Vision Transformer: patch embedding, encoder, and four
// per-patch prediction heads (objectness, class, attributes, box offsets).
//
// The patch grid doubles as the detection grid, so token t (t >= 1 after the
// CLS token) predicts for grid cell t-1. This keeps the detection formulation
// fully transformer-native while staying cheap enough to train on one core.
#pragma once

#include <functional>
#include <optional>

#include "nn/activation.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/transformer.h"
#include "vit/config.h"

namespace itask::vit {

struct GraphEvent;  // vit/graph.h
/// Receives the serving graph's step events (vit/graph.h).
using GraphSink = std::function<void(const GraphEvent&)>;

/// Per-batch raw model outputs (logits; apply sigmoid/softmax downstream).
struct VitOutput {
  Tensor objectness;  // [B, T, 1]
  Tensor class_logits;// [B, T, C]
  Tensor attr_logits; // [B, T, A]
  Tensor box_deltas;  // [B, T, 4] (dx, dy, dw, dh relative to the cell)
  Tensor relevance;   // [B, T, 1] task-relevance logit (task-specific config)
  Tensor features;    // [B, T+1, D] encoder output (distillation target)
};

/// Upstream gradients for backward(); any tensor may be empty (treated as 0).
struct VitOutputGrads {
  Tensor objectness;   // [B, T, 1]
  Tensor class_logits; // [B, T, C]
  Tensor attr_logits;  // [B, T, A]
  Tensor box_deltas;   // [B, T, 4]
  Tensor relevance;    // [B, T, 1]
  Tensor features;     // [B, T+1, D] (feature-distillation gradient)
};

class VitModel : public nn::Module {
 public:
  VitModel(const ViTConfig& config, Rng& rng);

  const ViTConfig& config() const { return config_; }
  const nn::TransformerEncoder& encoder() const { return encoder_; }

  /// Forward over a batch of images [B, C, H, W].
  VitOutput forward(const Tensor& images);

  /// Cache-free forward for concurrent inference: the serving graph
  /// (vit/graph.h) over this model's FP32 weights, read in place.
  /// Numerically identical to forward() but touches no mutable state, so
  /// many threads may call it on one model at once. Does not feed
  /// backward() or attention_rollout().
  VitOutput infer(const Tensor& images) const;
  /// infer(), reporting each step the graph runs to `sink` as it runs
  /// (vit::build_workload records the layer list this way).
  VitOutput infer(const Tensor& images, const GraphSink& sink) const;

  /// Attention rollout (Abnar & Zuidema, 2020) of the most recent forward,
  /// valid until that forward's backward consumes the attention caches:
  /// per-image token-to-token attribution [B, T+1, T+1] obtained by
  /// propagating head-averaged attention (with residual mixing 0.5A + 0.5I)
  /// through the encoder stack. Row t says which input tokens token t's
  /// final representation draws on — the interpretability view of which
  /// cells ground a detection.
  Tensor attention_rollout() const;

  /// Accumulates gradients for all heads + encoder + embedding.
  /// Returns the gradient w.r.t. the input images. Consumes every cache
  /// forward() left, also those of heads whose gradient is empty: a second
  /// backward needs a new forward.
  Tensor backward(const VitOutputGrads& grads);

 private:
  /// run_graph over this model's FP32 weights; `sink` is NoSink or a
  /// GraphSink (model.cpp instantiates both).
  template <typename Sink>
  VitOutput run_served(const Tensor& images, Sink&& sink) const;

  ViTConfig config_;
  nn::PatchEmbed embed_;
  nn::TransformerEncoder encoder_;
  nn::Linear obj_head_;
  nn::Linear cls_head_;
  nn::Linear attr_head_;
  // Box regression gets a small MLP: precise sub-cell localisation needs
  // more than a linear probe of the token (measured: +0.1 mean IoU).
  nn::Linear box_fc1_;
  nn::Gelu box_gelu_;
  nn::Linear box_fc2_;
  nn::Linear rel_head_;
  int64_t cached_batch_ = 0;
};

}  // namespace itask::vit
