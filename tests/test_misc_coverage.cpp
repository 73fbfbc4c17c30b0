// Coverage for behaviours not pinned elsewhere: the cosine LR schedule,
// box decoding extremes, rasterizer primitives, simulator monotonicity,
// and the bench configuration helper.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/gpu_model.h"
#include "accel/systolic.h"
#include "data/dataset.h"
#include "data/renderer.h"
#include "distill/trainer.h"

namespace itask {
namespace {

TEST(Schedule, WarmupThenDecayObservable) {
  // The schedule is internal to distill::fit; observe it through training
  // dynamics: a model trained through the warmup + cosine schedule ends
  // with a finite loss below its first step's.
  vit::ViTConfig cfg;
  cfg.dim = 16;
  cfg.depth = 1;
  cfg.heads = 2;
  data::GeneratorOptions gopt;
  data::SceneGenerator gen(gopt);
  Rng rng(1);
  const data::Dataset ds = data::Dataset::generate(gen, 24, rng);

  distill::TrainerOptions opt;
  opt.epochs = 10;
  opt.lr = 3e-3f;
  Rng m1(2);
  vit::VitModel scheduled(cfg, m1);
  const auto s1 = distill::train(scheduled, ds, opt);
  EXPECT_LT(s1.last.total(), s1.first.total());
  EXPECT_TRUE(std::isfinite(s1.last.total()));
}

TEST(Boxes, DecodeClampsExtremeLogSizes) {
  // Head outputs can be arbitrarily large early in training; decode_box
  // must clamp rather than produce inf-sized boxes.
  float wild[4] = {0.0f, 0.0f, 100.0f, -100.0f};
  const data::BoxPx b = data::decode_box(wild, 0, 3, 8.0f);
  EXPECT_TRUE(std::isfinite(b.w));
  EXPECT_TRUE(std::isfinite(b.h));
  EXPECT_LE(b.w, 8.0f * std::exp(4.0f) + 1.0f);
  EXPECT_GT(b.h, 0.0f);
}

TEST(Canvas, TriangleIsWidestAtBase) {
  Tensor img({3, 16, 16});
  data::Canvas canvas(img);
  canvas.fill_triangle(2, 2, 14, 14, 1, 1, 1);
  auto row_width = [&](int64_t y) {
    int64_t count = 0;
    for (int64_t x = 0; x < 16; ++x)
      if (img.at({0, y, x}) > 0.5f) ++count;
    return count;
  };
  EXPECT_GT(row_width(13), row_width(7));
  EXPECT_GT(row_width(7), row_width(3));
}

TEST(Canvas, ThickLineCoversMorePixels) {
  Tensor thin_img({3, 16, 16}), thick_img({3, 16, 16});
  data::Canvas thin(thin_img), thick(thick_img);
  thin.draw_line(2, 2, 14, 14, 1, 1, 1, 1.0f);
  thick.draw_line(2, 2, 14, 14, 1, 1, 1, 3.0f);
  auto lit = [](const Tensor& img) {
    int64_t count = 0;
    for (float v : img.data())
      if (v > 0.5f) ++count;
    return count;
  };
  EXPECT_GT(lit(thick_img), lit(thin_img));
}

TEST(Simulators, SystolicCyclesMonotoneInWork) {
  const accel::SystolicArray array;
  vit::GemmOp small{"s", 8, 32, 32, true};
  vit::GemmOp big{"b", 32, 64, 64, true};
  EXPECT_LT(array.simulate_gemm(small).total_cycles,
            array.simulate_gemm(big).total_cycles);
}

TEST(Simulators, GpuLatencyMonotoneInBatch) {
  const accel::GpuModel gpu;
  const auto w1 = vit::build_workload(vit::ViTConfig::student(), 1);
  const auto w8 = vit::build_workload(vit::ViTConfig::student(), 8);
  EXPECT_LT(gpu.run(w1, 10.0).total_micros, gpu.run(w8, 10.0).total_micros);
}

TEST(Simulators, AreaModelScalesWithResources) {
  accel::SystolicConfig small;
  small.rows = small.cols = 8;
  accel::SystolicConfig big;
  big.rows = big.cols = 32;
  EXPECT_LT(small.area_mm2(), big.area_mm2());
  accel::SystolicConfig more_sram = small;
  more_sram.sram_kb *= 4;
  EXPECT_LT(small.area_mm2(), more_sram.area_mm2());
}

TEST(Workload, WeightBytesMatchModelParameters) {
  // The workload descriptor's weight bytes must equal the number of 2-D
  // weight elements in the real model (the quantities the INT8 runtime and
  // the DMA model both move).
  const vit::ViTConfig cfg = vit::ViTConfig::student();
  Rng rng(4);
  vit::VitModel model(cfg, rng);
  int64_t weight_elems = 0;
  for (const auto& [name, tensor] : model.state_dict())
    if (tensor.ndim() == 2 && name.find("weight") != std::string::npos)
      weight_elems += tensor.numel();
  const auto workload = vit::build_workload(cfg, 1);
  EXPECT_EQ(workload.total_weight_bytes_int8(), weight_elems);
}

}  // namespace
}  // namespace itask
