// Tests for multi-bit quantization support and QAT fine-tuning.
#include <gtest/gtest.h>

#include "distill/trainer.h"
#include "quant/qat.h"
#include "tensor/ops.h"

namespace itask::quant {
namespace {

class BitWidth : public ::testing::TestWithParam<int> {};

TEST_P(BitWidth, GridBoundsAndRoundTrip) {
  const int bits = GetParam();
  const QuantParams p = QuantParams::symmetric(2.0f, bits);
  EXPECT_EQ(p.qmin, -(1 << (bits - 1)));
  EXPECT_EQ(p.qmax, (1 << (bits - 1)) - 1);
  EXPECT_EQ(p.zero_point, 0);
  Rng rng(static_cast<uint64_t>(bits));
  for (int i = 0; i < 200; ++i) {
    const float x = rng.uniform(-2.0f, 2.0f);
    const float back = p.dequantize(p.quantize(x));
    EXPECT_LE(std::abs(x - back), 0.5f * p.scale + 1e-6f);
  }
}

TEST_P(BitWidth, AsymmetricCoversRange) {
  const int bits = GetParam();
  const QuantParams p = QuantParams::asymmetric(-1.0f, 3.0f, bits);
  EXPECT_NEAR(p.dequantize(p.quantize(-1.0f)), -1.0f, p.scale);
  EXPECT_NEAR(p.dequantize(p.quantize(3.0f)), 3.0f, p.scale);
  EXPECT_EQ(p.dequantize(p.quantize(0.0f)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitWidth, ::testing::Values(2, 4, 6, 8));

TEST(BitWidthApi, FewerBitsMeansCoarserGrid) {
  Rng rng(3);
  Tensor t = rng.randn({1000});
  float prev_mse = 0.0f;
  for (int bits : {8, 6, 4, 2}) {
    const QuantParams p = QuantParams::symmetric(3.0f, bits);
    const float mse = quantization_mse(t, p);
    EXPECT_GT(mse, prev_mse);
    prev_mse = mse;
  }
}

TEST(BitWidthApi, WithBitsPreservesRange) {
  const QuantParams p8 = QuantParams::asymmetric(-0.5f, 2.0f, 8);
  const QuantParams p4 = p8.with_bits(4);
  EXPECT_EQ(p4.qmax, 7);
  // Representable range is (approximately) preserved.
  EXPECT_NEAR((p4.qmax - p4.zero_point) * p4.scale, 2.0f, 0.2f);
  EXPECT_NEAR((p4.qmin - p4.zero_point) * p4.scale, -0.5f, 0.2f);
}

TEST(BitWidthApi, InvalidBitsThrow) {
  EXPECT_THROW(QuantParams::symmetric(1.0f, 1), std::invalid_argument);
  EXPECT_THROW(QuantParams::symmetric(1.0f, 9), std::invalid_argument);
}

TEST(FakeQuant, ProjectsOntoGrid) {
  Rng rng(5);
  Tensor w = rng.randn({6, 10});
  Tensor original = w;
  fake_quantize_weight(w, WeightGranularity::kPerChannel, 4);
  // Every row now holds at most 2^4 distinct values, and values moved.
  EXPECT_FALSE(w.allclose(original, 1e-6f));
  for (int64_t r = 0; r < 6; ++r) {
    std::set<float> distinct;
    for (int64_t c = 0; c < 10; ++c) distinct.insert(w.at({r, c}));
    EXPECT_LE(distinct.size(), 16u);
  }
  // Idempotent: re-projecting is a no-op.
  Tensor again = w;
  fake_quantize_weight(again, WeightGranularity::kPerChannel, 4);
  EXPECT_TRUE(again.allclose(w, 1e-6f));
}

TEST(Qat, ImprovesLowBitDeploymentAccuracy) {
  // Train a small model, then compare INT4 PTQ loss before/after QAT.
  vit::ViTConfig cfg;
  cfg.dim = 16;
  cfg.depth = 1;
  cfg.heads = 2;
  Rng rng(7);
  vit::VitModel model(cfg, rng);
  data::GeneratorOptions gopt;
  data::SceneGenerator gen(gopt);
  Rng drng(8);
  const data::Dataset ds = data::Dataset::generate(gen, 48, drng);
  distill::TrainerOptions topt;
  topt.epochs = 10;
  distill::train(model, ds, topt);

  // Deployment-grid loss: supervised loss with fake-quantized weights.
  auto grid_loss = [&](vit::VitModel& m) {
    io::StateDict saved = m.state_dict();
    for (nn::Parameter* p : m.parameters())
      if (p->value.ndim() == 2 && p->name == "weight")
        fake_quantize_weight(p->value, WeightGranularity::kPerChannel, 4);
    const auto idx = ds.all_indices();
    const data::Batch batch = ds.make_batch(idx);
    const vit::VitOutput out = m.forward(batch.images);
    vit::VitOutputGrads grads;
    const auto losses =
        distill::supervised_losses(out, batch, {}, grads);
    m.load_state_dict(saved);
    return losses.total();
  };

  const float before = grid_loss(model);
  QatOptions qat;
  qat.quant.weight_bits = 4;
  qat.epochs = 6;
  const distill::FitStats stats = qat_finetune(model, ds, qat);
  EXPECT_GT(stats.steps, 0);
  const float after = grid_loss(model);
  EXPECT_LT(after, before);
}

TEST(Qat, EmptyDatasetThrows) {
  vit::ViTConfig cfg;
  cfg.dim = 16;
  cfg.depth = 1;
  cfg.heads = 2;
  Rng rng(9);
  vit::VitModel model(cfg, rng);
  EXPECT_THROW(qat_finetune(model, data::Dataset(), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace itask::quant
