// Architecture-sweep property tests: the full model must be correct (shapes,
// gradients, quantized tracking) for every configuration in the deployable
// envelope, not just the two presets.
#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "nn/gradcheck.h"
#include "nn/loss.h"
#include "quant/qvit.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "vit/model.h"
#include "vit/workload.h"

namespace itask::vit {
namespace {

// (dim, depth, heads, image, patch)
using Arch = std::tuple<int, int, int, int, int>;

ViTConfig make_config(const Arch& a) {
  ViTConfig c;
  c.dim = std::get<0>(a);
  c.depth = std::get<1>(a);
  c.heads = std::get<2>(a);
  c.image_size = std::get<3>(a);
  c.patch_size = std::get<4>(a);
  c.num_classes = 5;
  c.num_attributes = 6;
  return c;
}

class ArchSweep : public ::testing::TestWithParam<Arch> {};

TEST_P(ArchSweep, ForwardShapesAndFiniteness) {
  const ViTConfig cfg = make_config(GetParam());
  Rng rng(11);
  VitModel model(cfg, rng);
  const Tensor img = rng.rand({2, 3, cfg.image_size, cfg.image_size});
  const VitOutput out = model.forward(img);
  const int64_t t = cfg.tokens();
  EXPECT_EQ(out.objectness.shape(), (Shape{2, t, 1}));
  EXPECT_EQ(out.class_logits.shape(), (Shape{2, t, 5}));
  EXPECT_EQ(out.attr_logits.shape(), (Shape{2, t, 6}));
  EXPECT_EQ(out.relevance.shape(), (Shape{2, t, 1}));
  EXPECT_EQ(out.features.shape(), (Shape{2, t + 1, cfg.dim}));
  for (float v : out.class_logits.data()) EXPECT_TRUE(std::isfinite(v));
  for (float v : out.box_deltas.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(ArchSweep, BackwardProducesFiniteGradsEverywhere) {
  const ViTConfig cfg = make_config(GetParam());
  Rng rng(13);
  VitModel model(cfg, rng);
  const Tensor img = rng.rand({1, 3, cfg.image_size, cfg.image_size});
  const VitOutput out = model.forward(img);
  VitOutputGrads grads;
  grads.objectness =
      nn::bce_with_logits(out.objectness, Tensor(out.objectness.shape(), 1.0f))
          .grad;
  grads.attr_logits =
      nn::mse(out.attr_logits, Tensor(out.attr_logits.shape(), 0.3f)).grad;
  model.zero_grad();
  model.backward(grads);
  int64_t nonzero_params = 0;
  for (nn::Parameter* p : model.parameters()) {
    bool any = false;
    for (float g : p->grad.data()) {
      EXPECT_TRUE(std::isfinite(g)) << p->name;
      any |= (g != 0.0f);
    }
    if (any) ++nonzero_params;
  }
  // Gradients must reach most of the network (the class/box/rel heads get
  // none here by construction).
  EXPECT_GT(nonzero_params,
            static_cast<int64_t>(model.parameters().size()) / 2);
}

TEST_P(ArchSweep, QuantizedRuntimeTracksFp32) {
  const ViTConfig cfg = make_config(GetParam());
  Rng rng(17);
  VitModel model(cfg, rng);
  const Tensor img = rng.rand({2, 3, cfg.image_size, cfg.image_size});
  const VitOutput ref = model.forward(img);
  const quant::QuantizedVit qvit(model, img);
  const VitOutput out = qvit.forward(img);
  double err = 0.0, mag = 0.0;
  for (int64_t i = 0; i < ref.attr_logits.numel(); ++i) {
    err += std::abs(out.attr_logits[i] - ref.attr_logits[i]);
    mag += std::abs(ref.attr_logits[i]);
  }
  EXPECT_LT(err / std::max(mag, 1e-6), 0.25)
      << "dim=" << cfg.dim << " depth=" << cfg.depth;
}

TEST_P(ArchSweep, WorkloadMacsMatchHandCount) {
  const ViTConfig cfg = make_config(GetParam());
  const auto w = build_workload(cfg, 1);
  // Independent MAC count from first principles.
  const int64_t t = cfg.tokens() + 1;
  const int64_t d = cfg.dim;
  const int64_t hd = d / cfg.heads;
  const int64_t pv = 3 * cfg.patch_size * cfg.patch_size;
  int64_t expected = cfg.tokens() * pv * d;  // patch embed
  expected += cfg.depth *
              (t * d * 3 * d +                      // qkv
               cfg.heads * t * hd * t +             // scores
               cfg.heads * t * t * hd +             // attn·v
               t * d * d +                          // proj
               2 * t * d * cfg.mlp_hidden());       // fc1 + fc2
  expected += cfg.tokens() *
              (d * 1 + d * cfg.num_classes + d * cfg.num_attributes +
               d * d + d * 4 + d * 1);              // heads (box is an MLP)
  EXPECT_EQ(w.total_macs(), expected);
}

/// The plan_workspace() probe for one b8 forward: the peak live bytes over
/// a zero-capacity arena, the stacked input batch included.
template <typename Forward>
int64_t probe_peak(const ViTConfig& cfg, Forward&& forward) {
  Arena probe(0);
  const ArenaScope scope(probe);
  const Tensor images({8, cfg.channels, cfg.image_size, cfg.image_size});
  const VitOutput out = forward(images);
  (void)out;
  return probe.peak();
}

TEST(ArenaPeak, ServedForwardDoesNotGrowWithDepth) {
  // Each encoder block releases its temporaries under an ArenaMark, so the
  // serving arena holds the residual stream and one block at a time: the
  // workspace a forward needs is the same at depth 1 and depth 4, on both
  // served configurations. (A bump arena that never releases sums every
  // block's allocations and grows with depth.)
  std::array<int64_t, 2> fp32{}, int8{};
  for (int i = 0; i < 2; ++i) {
    ViTConfig cfg = ViTConfig::student();
    cfg.depth = i == 0 ? 1 : 4;
    Rng rng(19);
    const VitModel model(cfg, rng);
    const Tensor calib =
        rng.rand({2, cfg.channels, cfg.image_size, cfg.image_size});
    const quant::QuantizedVit qvit(model, calib);
    fp32[i] = probe_peak(cfg, [&](const Tensor& x) { return model.infer(x); });
    int8[i] = probe_peak(cfg, [&](const Tensor& x) { return qvit.forward(x); });
  }
  EXPECT_GT(fp32[0], 0);
  EXPECT_GT(int8[0], 0);
  EXPECT_EQ(fp32[1], fp32[0]);
  EXPECT_EQ(int8[1], int8[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Envelope, ArchSweep,
    ::testing::Values(Arch{16, 1, 1, 16, 8}, Arch{16, 1, 2, 24, 8},
                      Arch{24, 2, 2, 24, 8}, Arch{32, 2, 4, 24, 8},
                      Arch{40, 2, 4, 24, 8}, Arch{48, 3, 4, 24, 8},
                      Arch{64, 4, 4, 24, 8}, Arch{32, 2, 2, 32, 8},
                      Arch{32, 2, 2, 48, 16}));

}  // namespace
}  // namespace itask::vit
