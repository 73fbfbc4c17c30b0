#include "vit/model.h"

#include <utility>

#include "tensor/ops.h"
#include "vit/graph.h"

namespace itask::vit {

namespace {

/// The graph's `blocks` for FP32: encoder block i, by reference.
struct BlockRefs {
  const nn::TransformerEncoder& encoder;
  VitBlock<const Tensor&, const nn::Linear&> operator[](int64_t i) const {
    const nn::TransformerBlock& b = encoder.block(i);
    return {b.ln1().gamma(),      b.ln1().beta(), b.ln2().gamma(),
            b.ln2().beta(),       b.attention().qkv(),
            b.attention().proj(), b.fc1(),        b.fc2()};
  }
};

/// The graph's head bank for FP32: each head's Linear, run one after
/// another.
struct HeadRefs {
  std::array<const nn::Linear*, kHeadSlots> heads;
  HeadOutputs infer(const Tensor& x, const HeadEpilogues& eps) const {
    HeadOutputs out;
    for (size_t h = 0; h < kHeadSlots; ++h)
      out[h] = heads[h]->infer(x, eps[h]);
    return out;
  }
};

}  // namespace

VitModel::VitModel(const ViTConfig& config, Rng& rng)
    : config_(config),
      embed_(config.image_size, config.patch_size, config.channels, config.dim,
             rng),
      encoder_(config.dim, config.depth, config.heads, config.mlp_hidden(),
               rng),
      obj_head_(config.dim, 1, rng),
      cls_head_(config.dim, config.num_classes, rng),
      attr_head_(config.dim, config.num_attributes, rng),
      box_fc1_(config.dim, config.dim, rng),
      box_fc2_(config.dim, 4, rng),
      rel_head_(config.dim, 1, rng) {
  register_child("embed", embed_);
  register_child("encoder", encoder_);
  register_child("obj_head", obj_head_);
  register_child("cls_head", cls_head_);
  register_child("attr_head", attr_head_);
  register_child("box_fc1", box_fc1_);
  register_child("box_fc2", box_fc2_);
  register_child("rel_head", rel_head_);
  // Prior: objects are ~0.55 of a cell, so start the log-size outputs there
  // instead of at zero (log 1.0) — halves the box-regression burn-in.
  if (nn::Parameter* bias = box_fc2_.bias(); bias != nullptr) {
    bias->value[2] = -0.6f;
    bias->value[3] = -0.6f;
  }
}

VitOutput VitModel::forward(const Tensor& images) {
  const int64_t b = images.dim(0);
  cached_batch_ = b;
  Tensor tokens = encoder_.forward(embed_.forward(images));  // [B, T+1, D]
  Tensor patches = nn::patch_tokens(tokens);                 // [B, T, D]
  VitOutput out;
  out.objectness = obj_head_.forward(patches);
  out.class_logits = cls_head_.forward(patches);
  out.attr_logits = attr_head_.forward(patches);
  out.box_deltas = box_fc2_.forward(box_gelu_.forward(box_fc1_.forward(patches)));
  out.relevance = rel_head_.forward(patches);
  out.features = std::move(tokens);
  return out;
}

template <typename Sink>
VitOutput VitModel::run_served(const Tensor& images, Sink&& sink) const {
  const nn::LayerNorm& final_ln = encoder_.final_ln();
  const VitLayers<const Tensor&, const nn::Linear&, BlockRefs, HeadRefs>
      layers{embed_.proj(),
             embed_.cls(),
             embed_.pos(),
             {encoder_},
             final_ln.gamma(),
             final_ln.beta(),
             {{&obj_head_, &cls_head_, &attr_head_, &box_fc1_, &rel_head_}},
             box_fc2_};
  return run_graph(
      config_, layers, images,
      [](const auto& layer, const Tensor& x, const auto& ep) {
        return layer.infer(x, ep);
      },
      sink);
}

VitOutput VitModel::infer(const Tensor& images) const {
  return run_served(images, NoSink{});
}

VitOutput VitModel::infer(const Tensor& images, const GraphSink& sink) const {
  return run_served(images, sink);
}

Tensor VitModel::backward(const VitOutputGrads& grads) {
  ITASK_CHECK(cached_batch_ > 0, "VitModel: backward before forward");
  const int64_t b = std::exchange(cached_batch_, 0);  // backward consumes it
  const int64_t t = config_.tokens();
  const int64_t d = config_.dim;
  // Accumulate per-patch gradients from each active head. Every head runs
  // its backward, so each consumes its cache; a head with no gradient
  // returns an empty tensor and changes nothing.
  Tensor d_patches({b, t, d});
  const auto add = [&](const Tensor& grad) {
    if (!grad.empty()) ops::add_inplace(d_patches, grad);
  };
  add(obj_head_.backward(grads.objectness));
  add(cls_head_.backward(grads.class_logits));
  add(attr_head_.backward(grads.attr_logits));
  add(box_fc1_.backward(
      box_gelu_.backward(box_fc2_.backward(grads.box_deltas))));
  add(rel_head_.backward(grads.relevance));
  // Scatter patch grads into the full token layout (CLS slot gets the
  // feature-distillation gradient, if any).
  Tensor d_tokens({b, t + 1, d});
  {
    auto dp = d_patches.data();
    auto dt = d_tokens.data();
    for (int64_t bi = 0; bi < b; ++bi) {
      float* dst = dt.data() + (bi * (t + 1) + 1) * d;
      std::copy(dp.data() + bi * t * d, dp.data() + (bi + 1) * t * d, dst);
    }
  }
  if (!grads.features.empty()) {
    ITASK_CHECK(grads.features.shape() == d_tokens.shape(),
                "VitModel: feature grad shape mismatch");
    ops::add_inplace(d_tokens, grads.features);
  }
  return embed_.backward(encoder_.backward(d_tokens));
}

}  // namespace itask::vit

namespace itask::vit {

Tensor VitModel::attention_rollout() const {
  ITASK_CHECK(cached_batch_ > 0, "attention_rollout: forward first");
  const int64_t b = cached_batch_;
  const int64_t t = config_.tokens() + 1;
  const int64_t heads = config_.heads;
  // rollout starts as identity per image.
  Tensor rollout({b, t, t});
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t i = 0; i < t; ++i) rollout.at({bi, i, i}) = 1.0f;
  for (int64_t blk = 0; blk < config_.depth; ++blk) {
    const Tensor& attn = encoder_.block(blk).attention().last_attention();
    ITASK_CHECK(!attn.empty(), "attention_rollout: missing attention cache");
    // Head-average into [B, T, T] and mix with the residual path.
    Tensor layer({b, t, t});
    auto a = attn.data();
    auto l = layer.data();
    const float inv_h = 1.0f / static_cast<float>(heads);
    for (int64_t bi = 0; bi < b; ++bi)
      for (int64_t h = 0; h < heads; ++h) {
        const float* src = a.data() + ((bi * heads + h) * t) * t;
        float* dst = l.data() + bi * t * t;
        for (int64_t i = 0; i < t * t; ++i) dst[i] += src[i] * inv_h;
      }
    for (int64_t bi = 0; bi < b; ++bi)
      for (int64_t i = 0; i < t; ++i) {
        for (int64_t j = 0; j < t; ++j) {
          float& v = layer.at({bi, i, j});
          v = 0.5f * v + (i == j ? 0.5f : 0.0f);
        }
      }
    rollout = ops::bmm(layer, rollout);
  }
  return rollout;
}

}  // namespace itask::vit
