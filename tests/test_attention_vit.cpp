// Attention, transformer, patch embedding, and full-model gradient checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "composed_attention.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/gradcheck.h"
#include "nn/loss.h"
#include "nn/transformer.h"
#include "same_bits.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "vit/model.h"
#include "vit/workload.h"

namespace itask {
namespace {

using nn::merge_heads;
using nn::split_heads;

TEST(Heads, SplitMergeRoundTrip) {
  Rng rng(1);
  Tensor x = rng.randn({2, 5, 8});
  for (int64_t heads : {1, 2, 4, 8}) {
    Tensor split = split_heads(x, heads);
    EXPECT_EQ(split.shape(), (Shape{2 * heads, 5, 8 / heads}));
    EXPECT_TRUE(merge_heads(split, heads).allclose(x, 0.0f));
  }
}

TEST(Heads, SplitLayout) {
  // [B=1, T=2, D=4], 2 heads: head h sees dims [h*2, h*2+2).
  Tensor x({1, 2, 4}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor s = split_heads(x, 2);
  EXPECT_EQ(s.at({0, 0, 0}), 0.0f);  // head 0, token 0
  EXPECT_EQ(s.at({0, 1, 1}), 5.0f);  // head 0, token 1
  EXPECT_EQ(s.at({1, 0, 0}), 2.0f);  // head 1, token 0
  EXPECT_EQ(s.at({1, 1, 1}), 7.0f);  // head 1, token 1
}

TEST(Heads, IndivisibleThrows) {
  EXPECT_THROW(split_heads(Tensor({1, 2, 5}), 2), std::invalid_argument);
}

TEST(Attention, OutputShapeAndGradCheck) {
  Rng rng(2);
  nn::MultiHeadAttention attn(8, 2, rng);
  const Tensor x = rng.randn({2, 4, 8}, 0.0f, 0.5f);
  Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8}));
  const Tensor target = rng.randn({2, 4, 8});
  auto loss_fn = [&]() {
    Tensor out = attn.forward(x);
    auto res = nn::mse(out, target);
    attn.backward(res.grad);
    return res.value;
  };
  const auto result = nn::check_gradients(attn, loss_fn, 1e-2f, 4e-2f, 12);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

// Backward consumes the forward's cache, the probabilities included: a
// second backward without a new forward throws, and last_attention() is
// valid only between a forward and its backward.
TEST(MultiHeadAttention, SecondBackwardThrows) {
  Rng rng(21);
  nn::MultiHeadAttention attn(8, 2, rng);
  const Tensor x = rng.randn({2, 4, 8});
  const Tensor g = rng.randn({2, 4, 8});
  (void)attn.forward(x);
  EXPECT_EQ(attn.last_attention().shape(), (Shape{4, 4, 4}));
  (void)attn.backward(g);
  EXPECT_TRUE(attn.last_attention().empty());
  EXPECT_THROW(attn.backward(g), std::invalid_argument);
  (void)attn.forward(x);
  EXPECT_NO_THROW(attn.backward(g));
}

TEST(AttentionCore, MatchesComposedOracleBitForBit) {
  struct Case {
    int64_t t, d, heads;
  };
  // Student (T 10, D 40, H 4), teacher (D 64, hd 16), T 17 / hd 8, T 1,
  // hd 5 and 12 (not multiples of 8), and T 300 / hd 260 (more than one
  // GEMM reduction slab).
  const Case cases[] = {{10, 40, 4}, {10, 64, 4}, {17, 32, 4}, {1, 40, 4},
                        {9, 15, 3},  {13, 24, 2}, {300, 8, 1}, {3, 260, 1}};
  Rng rng(21);
  for (const Case& c : cases)
    for (int64_t b : {1, 3, 8}) {
      SCOPED_TRACE(::testing::Message() << "T " << c.t << " D " << c.d
                                        << " H " << c.heads << " B " << b);
      Tensor qkv = rng.randn({b, c.t, 3 * c.d});
      for (int64_t i = 0; i < qkv.numel(); i += 7) qkv[i] = 0.0f;
      for (int64_t i = 3; i < qkv.numel(); i += 11) qkv[i] = -0.0f;
      // The last image of a batch also gets magnitudes whose scores
      // saturate the softmax or overflow to ±inf (earlier images keep
      // ordinary values, where the summation order shows in the bits).
      if (b > 1)
        for (int64_t i = (b - 1) * c.t * 3 * c.d + 5; i < qkv.numel(); i += 29)
          qkv[i] *= 1e19f;
      const nn::AttentionCore got = nn::attention_core(qkv, c.heads);
      const nn::AttentionCore want = composed_attention(qkv, c.heads);
      EXPECT_TRUE(same_bits(got.attn, want.attn));
      EXPECT_TRUE(same_bits(got.ctx, want.ctx));
    }
}

TEST(AttentionCore, NanPositionsMatchOracle) {
  Rng rng(22);
  for (int64_t t : {1, 10, 17}) {
    Tensor qkv = rng.randn({3, t, 3 * 40});
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    qkv[2] = nan;                 // a query feature (image 0, head 0)
    qkv[t * 120 + 50] = inf;      // a key feature (image 1, head 1)
    qkv[2 * t * 120 + 94] = nan;  // a value feature (image 2, head 1)
    const nn::AttentionCore got = nn::attention_core(qkv, 4);
    const nn::AttentionCore want = composed_attention(qkv, 4);
    EXPECT_TRUE(std::isnan(got.ctx[0]));
    EXPECT_TRUE(same_bits(got.attn, want.attn)) << "T " << t;
    EXPECT_TRUE(same_bits(got.ctx, want.ctx)) << "T " << t;
  }
}

TEST(AttentionCore, ServedContextMatchesTheCoreBitForBit) {
  // attention_ctx keeps each row block's probabilities in one scratch
  // strip instead of the [B*H, T, T] tensor; its ctx must equal
  // attention_core's (and so the composed oracle's) bit for bit, with
  // saturating scores and NaNs included, and it needs less arena.
  Rng rng(23);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [t, d, heads] :
       {std::tuple<int64_t, int64_t, int64_t>{10, 40, 4},
        {17, 32, 4},
        {1, 40, 4},
        {9, 15, 3},
        {300, 8, 1}})
    for (int64_t b : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "T " << t << " D " << d << " B " << b);
      Tensor qkv = rng.randn({b, t, 3 * d});
      for (int64_t i = 5; i < qkv.numel(); i += 29) qkv[i] *= 1e19f;
      qkv[qkv.numel() - 1] = nan;
      const Tensor got = nn::attention_ctx(qkv, heads);
      EXPECT_TRUE(same_bits(got, nn::attention_core(qkv, heads).ctx));
      EXPECT_TRUE(same_bits(got, composed_attention(qkv, heads).ctx));
      Arena served(0), core(0);
      {
        ArenaScope scope(served);
        (void)nn::attention_ctx(qkv, heads);
      }
      {
        ArenaScope scope(core);
        (void)nn::attention_core(qkv, heads);
      }
      // At T 1 the strip and the probabilities round to the same line.
      if (t > 1)
        EXPECT_LT(served.peak(), core.peak());
      else
        EXPECT_EQ(served.peak(), core.peak());
    }
}

TEST(MultiHeadAttention, BackwardMatchesComposedBitForBit) {
  // attention_core_backward (what MultiHeadAttention::backward runs) must
  // round every element as the composed ops do: token counts below, at
  // and past the 8-lane width, head dims with and without a lane tail,
  // ±0, saturated probabilities, huge gradients and a NaN.
  Rng rng(24);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t b : {1, 3, 16})
    for (int64_t t : {1, 2, 5, 10, 17})
      for (int64_t hd : {8, 9, 10, 16})
        for (int64_t heads : {1, 3}) {
          SCOPED_TRACE(::testing::Message() << "B " << b << " T " << t
                                            << " hd " << hd << " H " << heads);
          const int64_t d = hd * heads;
          Tensor qkv = rng.randn({b, t, 3 * d});
          for (int64_t i = 0; i < qkv.numel(); i += 7) qkv[i] = 0.0f;
          for (int64_t i = 3; i < qkv.numel(); i += 11) qkv[i] = -0.0f;
          // The last image's scores saturate the softmax.
          if (b > 1)
            for (int64_t i = (b - 1) * t * 3 * d + 5; i < qkv.numel(); i += 29)
              qkv[i] *= 1e3f;
          const Tensor attn = nn::attention_core(qkv, heads).attn;
          Tensor d_ctx = rng.randn({b, t, d});
          for (int64_t i = 1; i < d_ctx.numel(); i += 5) d_ctx[i] = -0.0f;
          for (int64_t i = 2; i < d_ctx.numel(); i += 13) d_ctx[i] *= 1e30f;
          if (b == 3) d_ctx[t * d + d / 2] = nan;  // image 1 only
          const Tensor got =
              nn::attention_core_backward(qkv, attn, d_ctx, heads);
          EXPECT_TRUE(same_bits(
              got, composed_attention_backward(qkv, attn, d_ctx, heads)));
          if (b == 3) {
            EXPECT_TRUE(std::isnan(got[t * 3 * d + 2 * d + d / 2]));
            EXPECT_FALSE(std::isnan(got[0]));
          }
        }
}

TEST(Attention, PermutationEquivariance) {
  // Self-attention without masking is equivariant to token permutation.
  Rng rng(3);
  nn::MultiHeadAttention attn(8, 2, rng);
  Tensor x = rng.randn({1, 3, 8});
  Tensor y = attn.forward(x);
  // Swap tokens 0 and 2 of the input.
  Tensor xp = x;
  for (int64_t j = 0; j < 8; ++j) {
    std::swap(xp.data()[0 * 8 + j], xp.data()[2 * 8 + j]);
  }
  Tensor yp = attn.forward(xp);
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(yp.at({0, 0, j}), y.at({0, 2, j}), 1e-4f);
    EXPECT_NEAR(yp.at({0, 2, j}), y.at({0, 0, j}), 1e-4f);
    EXPECT_NEAR(yp.at({0, 1, j}), y.at({0, 1, j}), 1e-4f);
  }
}

TEST(TransformerBlock, GradCheck) {
  Rng rng(4);
  nn::TransformerBlock block(6, 2, 12, rng);
  const Tensor x = rng.randn({1, 3, 6}, 0.0f, 0.5f);
  const Tensor target = rng.randn({1, 3, 6});
  auto loss_fn = [&]() {
    Tensor y = block.forward(x);
    auto res = nn::mse(y, target);
    block.backward(res.grad);
    return res.value;
  };
  const auto result = nn::check_gradients(block, loss_fn, 1e-2f, 5e-2f, 8);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

TEST(TransformerEncoder, DepthAndShape) {
  Rng rng(5);
  nn::TransformerEncoder enc(8, 3, 2, 16, rng);
  EXPECT_EQ(enc.depth(), 3);
  Tensor x = rng.randn({2, 5, 8});
  EXPECT_EQ(enc.forward(x).shape(), (Shape{2, 5, 8}));
  EXPECT_THROW(nn::TransformerEncoder(8, 0, 2, 16, rng),
               std::invalid_argument);
}

TEST(Patchify, LayoutAndAdjoint) {
  // 1 image, 1 channel, 4x4, patch 2 → 4 patches of 4 values.
  Tensor img({1, 1, 4, 4});
  for (int64_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i);
  Tensor patches = nn::patchify(img, 2);
  EXPECT_EQ(patches.shape(), (Shape{1, 4, 4}));
  // Patch (0,0) = pixels {0,1,4,5}.
  EXPECT_EQ(patches.at({0, 0, 0}), 0.0f);
  EXPECT_EQ(patches.at({0, 0, 1}), 1.0f);
  EXPECT_EQ(patches.at({0, 0, 2}), 4.0f);
  EXPECT_EQ(patches.at({0, 0, 3}), 5.0f);
  // Patch (1,1) = pixels {10,11,14,15}.
  EXPECT_EQ(patches.at({0, 3, 0}), 10.0f);
  EXPECT_EQ(patches.at({0, 3, 3}), 15.0f);
  // unpatchify_grad is the exact adjoint: scattering ones and re-gathering
  // equals identity for non-overlapping patches.
  Tensor back = nn::unpatchify_grad(patches, 2, 1, 4, 4);
  EXPECT_TRUE(back.allclose(img, 0.0f));
}

TEST(PatchEmbed, ShapeAndClsToken) {
  Rng rng(6);
  nn::PatchEmbed embed(8, 4, 3, 16, rng);
  EXPECT_EQ(embed.tokens(), 4);
  Tensor img = rng.randn({2, 3, 8, 8});
  Tensor tokens = embed.forward(img);
  EXPECT_EQ(tokens.shape(), (Shape{2, 5, 16}));
}

TEST(PatchEmbed, GradCheck) {
  Rng rng(7);
  nn::PatchEmbed embed(4, 2, 1, 6, rng);
  const Tensor img = rng.randn({2, 1, 4, 4});
  const Tensor target = rng.randn({2, 5, 6});
  auto loss_fn = [&]() {
    Tensor tokens = embed.forward(img);
    auto res = nn::mse(tokens, target);
    embed.backward(res.grad);
    return res.value;
  };
  const auto result = nn::check_gradients(embed, loss_fn, 1e-2f, 3e-2f, 16);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

vit::ViTConfig tiny_config() {
  vit::ViTConfig c;
  c.image_size = 8;
  c.patch_size = 4;
  c.dim = 8;
  c.depth = 1;
  c.heads = 2;
  c.mlp_ratio = 2;
  c.num_classes = 3;
  c.num_attributes = 4;
  return c;
}

TEST(VitModel, OutputShapes) {
  Rng rng(8);
  vit::VitModel model(tiny_config(), rng);
  Tensor img = rng.randn({2, 3, 8, 8});
  const vit::VitOutput out = model.forward(img);
  EXPECT_EQ(out.objectness.shape(), (Shape{2, 4, 1}));
  EXPECT_EQ(out.class_logits.shape(), (Shape{2, 4, 3}));
  EXPECT_EQ(out.attr_logits.shape(), (Shape{2, 4, 4}));
  EXPECT_EQ(out.box_deltas.shape(), (Shape{2, 4, 4}));
  EXPECT_EQ(out.relevance.shape(), (Shape{2, 4, 1}));
  EXPECT_EQ(out.features.shape(), (Shape{2, 5, 8}));
}

TEST(VitModel, FullGradCheckThroughAllHeads) {
  Rng rng(9);
  vit::VitModel model(tiny_config(), rng);
  const Tensor img = rng.randn({1, 3, 8, 8}, 0.0f, 0.5f);
  const std::vector<int64_t> labels{0, 1, 2, 0};
  auto loss_fn = [&]() {
    const vit::VitOutput out = model.forward(img);
    vit::VitOutputGrads grads;
    float total = 0.0f;
    {
      auto res = nn::bce_with_logits(out.objectness,
                                     Tensor({1, 4, 1}, 1.0f));
      total += res.value;
      grads.objectness = res.grad;
    }
    {
      auto res = nn::softmax_cross_entropy(out.class_logits, labels);
      total += res.value;
      grads.class_logits = res.grad;
    }
    {
      auto res = nn::mse(out.attr_logits, Tensor({1, 4, 4}, 0.5f));
      total += res.value;
      grads.attr_logits = res.grad;
    }
    {
      auto res = nn::mse(out.box_deltas, Tensor({1, 4, 4}, 0.1f));
      total += res.value;
      grads.box_deltas = res.grad;
    }
    {
      auto res = nn::bce_with_logits(out.relevance, Tensor({1, 4, 1}, 0.0f));
      total += res.value;
      grads.relevance = res.grad;
    }
    model.backward(grads);
    return total;
  };
  const auto result = nn::check_gradients(model, loss_fn, 2e-3f, 5e-2f, 6);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

// VitModel::backward consumes every cache forward() left, also those of
// the heads it gets no gradient for: a second backward, and the rollout
// after a backward, throw until a new forward.
TEST(VitModel, SecondBackwardThrows) {
  Rng rng(12);
  vit::VitModel model(tiny_config(), rng);
  const Tensor img = rng.randn({2, 3, 8, 8});
  vit::VitOutputGrads grads;
  grads.objectness = rng.randn({2, 4, 1});  // the other heads get none
  (void)model.forward(img);
  EXPECT_NO_THROW((void)model.attention_rollout());
  (void)model.backward(grads);
  EXPECT_THROW(model.backward(grads), std::invalid_argument);
  EXPECT_THROW((void)model.attention_rollout(), std::invalid_argument);
  (void)model.forward(img);
  EXPECT_NO_THROW(model.backward(grads));
}

TEST(VitModel, DeterministicForward) {
  Rng rng1(10), rng2(10);
  vit::VitModel m1(tiny_config(), rng1), m2(tiny_config(), rng2);
  Rng data(11);
  Tensor img = data.randn({1, 3, 8, 8});
  EXPECT_TRUE(m1.forward(img).objectness.allclose(m2.forward(img).objectness,
                                                  0.0f));
}

// infer() and forward() run the same shared routines, so every output must
// match bit for bit — with per-call packing and again after the serving
// weights are prepacked.
// The served graph against the training forward, for the student and the
// teacher (distillation reads the frozen teacher through infer()).
TEST(VitModel, InferBitIdenticalToForward) {
  Rng rng(12);
  auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  for (const vit::ViTConfig& c :
       {vit::ViTConfig::student(), vit::ViTConfig::teacher()}) {
    vit::VitModel model(c, rng);
    std::vector<Tensor> images;
    std::vector<vit::VitOutput> wants;
    for (int64_t b : {3, 16}) {
      images.push_back(
          rng.rand({b, c.channels, c.image_size, c.image_size}));
      wants.push_back(model.forward(images.back()));
    }
    auto expect_identical = [&](const char* when) {
      for (size_t i = 0; i < images.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "D " << c.dim << " B " << images[i].dim(0) << " "
                     << when);
        const vit::VitOutput got = model.infer(images[i]);
        const vit::VitOutput& want = wants[i];
        EXPECT_TRUE(same_bits(got.objectness, want.objectness));
        EXPECT_TRUE(same_bits(got.class_logits, want.class_logits));
        EXPECT_TRUE(same_bits(got.attr_logits, want.attr_logits));
        EXPECT_TRUE(same_bits(got.box_deltas, want.box_deltas));
        EXPECT_TRUE(same_bits(got.relevance, want.relevance));
        EXPECT_TRUE(same_bits(got.features, want.features));
      }
    };
    expect_identical("before prepack");
    model.prepack_for_serving();
    expect_identical("after prepack");
  }
}

TEST(Workload, OpInventoryMatchesConfig) {
  vit::ViTConfig c = tiny_config();
  const auto w = vit::build_workload(c, 2);
  // patch_embed + depth*(qkv, scores, attn_value, proj, fc1, fc2) + 6 heads.
  EXPECT_EQ(static_cast<int64_t>(w.gemms.size()), 1 + c.depth * 6 + 6);
  EXPECT_GT(w.total_macs(), 0);
  EXPECT_GT(w.total_weight_bytes_int8(), 0);
  EXPECT_EQ(w.batch, 2);
  // Attention products carry no weights.
  for (const auto& g : w.gemms) {
    if (g.name.find("attn_") != std::string::npos) {
      EXPECT_EQ(g.weight_bytes_int8(), 0) << g.name;
    }
  }
}

TEST(Workload, MacsScaleLinearlyWithBatch) {
  vit::ViTConfig c = tiny_config();
  const auto w1 = vit::build_workload(c, 1);
  const auto w4 = vit::build_workload(c, 4);
  EXPECT_EQ(w4.total_macs(), 4 * w1.total_macs());
  // Weight bytes do NOT scale with batch.
  EXPECT_EQ(w4.total_weight_bytes_int8(), w1.total_weight_bytes_int8());
}

/// The hand-written layer list build_workload returned before it recorded
/// the served graph, kept as the reference for the recorded one. One name
/// differs: fc1's GELU was "blockN.gelu" and is now "blockN.fc1_gelu".
vit::InferenceWorkload hand_written_workload(const vit::ViTConfig& c,
                                             int64_t batch) {
  vit::InferenceWorkload w;
  w.batch = batch;
  const int64_t t = c.tokens() + 1;  // tokens incl. CLS
  const int64_t d = c.dim;
  const int64_t hd = d / c.heads;
  const int64_t pv = c.channels * c.patch_size * c.patch_size;
  const int64_t rows = batch * t;

  w.gemms.push_back({"patch_embed", batch * c.tokens(), pv, d, true});
  for (int64_t blk = 0; blk < c.depth; ++blk) {
    const std::string p = "block" + std::to_string(blk) + ".";
    w.vector_ops.push_back({p + "ln1", rows * d, 6.0});
    w.gemms.push_back({p + "qkv", rows, d, 3 * d, true});
    w.gemms.push_back({p + "attn_scores", batch * c.heads * t, hd, t, false});
    w.vector_ops.push_back({p + "softmax", batch * c.heads * t * t, 4.0});
    w.gemms.push_back({p + "attn_value", batch * c.heads * t, t, hd, false});
    w.gemms.push_back({p + "proj", rows, d, d, true});
    w.vector_ops.push_back({p + "ln2", rows * d, 6.0});
    w.gemms.push_back({p + "fc1", rows, d, c.mlp_hidden(), true});
    w.vector_ops.push_back({p + "fc1_gelu", rows * c.mlp_hidden(), 8.0});
    w.gemms.push_back({p + "fc2", rows, c.mlp_hidden(), d, true});
  }
  w.vector_ops.push_back({"final_ln", rows * d, 6.0});
  const int64_t prows = batch * c.tokens();
  w.gemms.push_back({"obj_head", prows, d, 1, true});
  w.gemms.push_back({"cls_head", prows, d, c.num_classes, true});
  w.gemms.push_back({"attr_head", prows, d, c.num_attributes, true});
  w.gemms.push_back({"box_fc1", prows, d, d, true});
  w.gemms.push_back({"box_fc2", prows, d, 4, true});
  w.gemms.push_back({"rel_head", prows, d, 1, true});
  w.vector_ops.push_back({"head_activations",
                          prows * (1 + c.num_classes + c.num_attributes),
                          3.0});
  return w;
}

TEST(Workload, RecordedListIsTheServedGraph) {
  for (const vit::ViTConfig& c :
       {vit::ViTConfig::student(), vit::ViTConfig::teacher()}) {
    for (int64_t batch : {1, 4}) {
      SCOPED_TRACE(c.to_string() + " batch " + std::to_string(batch));
      const vit::InferenceWorkload ref = hand_written_workload(c, batch);
      const vit::InferenceWorkload got = vit::build_workload(c, batch);
      const int64_t stream = batch * (c.tokens() + 1) * c.dim;

      // The same GEMMs, with box_fc2 after rel_head: the graph runs the
      // head bank, then box_fc2 on box_fc1's output.
      std::vector<vit::GemmOp> want_gemms = ref.gemms;
      const auto box_fc2 = want_gemms.end() - 2;
      ASSERT_EQ(box_fc2->name, "box_fc2");
      std::rotate(box_fc2, box_fc2 + 1, want_gemms.end());
      ASSERT_EQ(got.gemms.size(), want_gemms.size());
      for (size_t i = 0; i < want_gemms.size(); ++i) {
        SCOPED_TRACE(want_gemms[i].name);
        EXPECT_EQ(got.gemms[i].name, want_gemms[i].name);
        EXPECT_EQ(got.gemms[i].m, want_gemms[i].m);
        EXPECT_EQ(got.gemms[i].k, want_gemms[i].k);
        EXPECT_EQ(got.gemms[i].n, want_gemms[i].n);
        EXPECT_EQ(got.gemms[i].weight_resident,
                  want_gemms[i].weight_resident);
      }

      // The hand-written vector ops plus exactly the ones it missed: token
      // assembly, the two residual adds per block and box_fc1's GELU.
      std::vector<vit::VectorOp> want_vec;
      want_vec.push_back({"assemble_tokens", stream, 1.0});
      for (const vit::VectorOp& v : ref.vector_ops) {
        want_vec.push_back(v);
        const std::string block = v.name.substr(0, v.name.find('.') + 1);
        if (v.name.ends_with(".softmax"))
          want_vec.push_back({block + "proj_residual", stream, 1.0});
        if (v.name.ends_with(".fc1_gelu"))
          want_vec.push_back({block + "fc2_residual", stream, 1.0});
        if (v.name == "final_ln")
          want_vec.push_back(
              {"box_fc1_gelu", batch * c.tokens() * c.dim, 8.0});
      }
      ASSERT_EQ(got.vector_ops.size(), want_vec.size());
      for (size_t i = 0; i < want_vec.size(); ++i) {
        SCOPED_TRACE(want_vec[i].name);
        EXPECT_EQ(got.vector_ops[i].name, want_vec[i].name);
        EXPECT_EQ(got.vector_ops[i].elements, want_vec[i].elements);
        EXPECT_EQ(got.vector_ops[i].flops_per_element,
                  want_vec[i].flops_per_element);
      }
    }
  }
}

TEST(Workload, RejectsConfigsTheModelCannotRun) {
  vit::ViTConfig odd_heads = vit::ViTConfig::student();
  odd_heads.dim = 42;
  odd_heads.heads = 4;  // 42 / 4 is not a whole head dim
  EXPECT_THROW(vit::build_workload(odd_heads, 1), std::invalid_argument);
  vit::ViTConfig odd_grid = vit::ViTConfig::student();
  odd_grid.image_size = 28;
  odd_grid.patch_size = 8;  // 28 / 8 is not a whole patch grid
  EXPECT_THROW(vit::build_workload(odd_grid, 1), std::invalid_argument);
}

}  // namespace
}  // namespace itask
