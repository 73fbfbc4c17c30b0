// Hardware-simulator tests: closed-form cycle counts, tiling/monotonicity
// properties, residency, energy accounting, and the GPU cost model.
#include <gtest/gtest.h>

#include "accel/gpu_model.h"
#include "accel/systolic.h"

namespace itask::accel {
namespace {

vit::GemmOp gemm(int64_t m, int64_t k, int64_t n, bool resident = true) {
  vit::GemmOp op;
  op.name = "g";
  op.m = m;
  op.k = k;
  op.n = n;
  op.weight_resident = resident;
  return op;
}

TEST(Systolic, ExactFitClosedForm) {
  SystolicConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.double_buffered = true;
  const SystolicArray array(cfg);
  // k = rows, n = cols → exactly one tile.
  const GemmTiming t = array.simulate_gemm(gemm(10, 8, 8));
  EXPECT_EQ(t.tiles, 1);
  EXPECT_EQ(t.compute_cycles, 10 + 8 + 8 - 2);
  EXPECT_EQ(t.weight_load_cycles, 8);  // first tile load not hidden
  EXPECT_EQ(t.total_cycles, t.compute_cycles + 8);
}

TEST(Systolic, TileCountCeils) {
  SystolicConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const SystolicArray array(cfg);
  EXPECT_EQ(array.simulate_gemm(gemm(4, 9, 8)).tiles, 2);   // ceil(9/8)=2
  EXPECT_EQ(array.simulate_gemm(gemm(4, 16, 17)).tiles, 6); // 2 × 3
  EXPECT_EQ(array.simulate_gemm(gemm(4, 1, 1)).tiles, 1);
}

TEST(Systolic, DoubleBufferingHidesWeightLoads) {
  SystolicConfig on;
  on.double_buffered = true;
  SystolicConfig off = on;
  off.double_buffered = false;
  const auto t_on = SystolicArray(on).simulate_gemm(gemm(32, 64, 64));
  const auto t_off = SystolicArray(off).simulate_gemm(gemm(32, 64, 64));
  EXPECT_LT(t_on.weight_load_cycles, t_off.weight_load_cycles);
  EXPECT_LT(t_on.total_cycles, t_off.total_cycles);
  EXPECT_EQ(t_on.compute_cycles, t_off.compute_cycles);
}

class PeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PeSweep, MorePesNeverSlower) {
  const int64_t pe = GetParam();
  SystolicConfig small;
  small.rows = pe;
  small.cols = pe;
  SystolicConfig big;
  big.rows = pe * 2;
  big.cols = pe * 2;
  const vit::GemmOp op = gemm(24, 96, 64);
  const auto t_small = SystolicArray(small).simulate_gemm(op);
  const auto t_big = SystolicArray(big).simulate_gemm(op);
  EXPECT_LE(t_big.total_cycles, t_small.total_cycles);
}

TEST_P(PeSweep, UtilizationInUnitRange) {
  const int64_t pe = GetParam();
  SystolicConfig cfg;
  cfg.rows = pe;
  cfg.cols = pe;
  const auto t = SystolicArray(cfg).simulate_gemm(gemm(16, 48, 40));
  EXPECT_GT(t.utilization, 0.0);
  EXPECT_LE(t.utilization, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PeSweep, ::testing::Values(4, 8, 16, 32));

TEST(Systolic, ResidentWeightsSkipDram) {
  const vit::ViTConfig model = vit::ViTConfig::student();
  const auto workload = vit::build_workload(model, 1);
  SystolicConfig cfg;
  cfg.sram_kb = 1024;  // plenty: weights resident
  const SimReport resident = SystolicArray(cfg).run(workload);
  for (const auto& layer : resident.layers) EXPECT_EQ(layer.dram_bytes, 0);
  cfg.weights_resident = false;
  const SimReport streaming = SystolicArray(cfg).run(workload);
  int64_t dram = 0;
  for (const auto& layer : streaming.layers) dram += layer.dram_bytes;
  EXPECT_GT(dram, 0);
  EXPECT_GT(streaming.dynamic_energy_uj, resident.dynamic_energy_uj);
}

TEST(Systolic, FrameDeadlineEnforced) {
  const vit::ViTConfig model = vit::ViTConfig::student();
  const auto workload = vit::build_workload(model, 1);
  const SystolicArray array;
  EXPECT_NO_THROW(array.run(workload, 30.0));
  // An absurd frame rate the accelerator cannot meet must throw.
  EXPECT_THROW(array.run(workload, 1e6), std::invalid_argument);
}

TEST(Systolic, ReportTotalsAreConsistent) {
  const auto workload = vit::build_workload(vit::ViTConfig::student(), 1);
  const SimReport r = SystolicArray().run(workload);
  EXPECT_GT(r.total_micros, 0.0);
  EXPECT_NEAR(r.fps_capability, 1e6 / r.total_micros, 1e-6);
  double layer_energy = 0.0;
  for (const auto& l : r.layers) layer_energy += l.dynamic_energy_uj;
  // Totals include activation-I/O DMA energy on top of per-layer terms.
  EXPECT_GE(r.dynamic_energy_uj, layer_energy);
  EXPECT_EQ(r.layers.size(),
            workload.gemms.size() + workload.vector_ops.size());
}

// The DMA engine charges what the graph moves across DRAM besides weights:
// the input frame and the detection outputs, one INT8 byte per element. A
// 48 px frame and its output grid are 4× the 24 px ones, so is the charge.
TEST(Systolic, IoChargeIsTheFrameAndOutputBytes) {
  const SystolicArray array;
  const auto io_micros = [&](int64_t image_size) {
    vit::ViTConfig c = vit::ViTConfig::student();
    c.image_size = image_size;
    const SimReport r = array.run(vit::build_workload(c, 1));
    double layer_micros = 0.0;
    for (const auto& l : r.layers) layer_micros += l.micros;
    return r.total_micros - layer_micros;  // weights are resident
  };
  const vit::ViTConfig c = vit::ViTConfig::student();
  const int64_t bytes =
      c.channels * c.image_size * c.image_size +
      c.tokens() * (1 + c.num_classes + c.num_attributes + 4 + 1);
  const double small = io_micros(c.image_size);
  EXPECT_NEAR(small,
              static_cast<double>(bytes) / (array.config().dram_bw_gbps * 1e3),
              1e-6);
  EXPECT_NEAR(io_micros(2 * c.image_size), 4.0 * small, 1e-6);
}

TEST(Systolic, BadConfigThrows) {
  SystolicConfig cfg;
  cfg.rows = 0;
  EXPECT_THROW(SystolicArray{cfg}, std::invalid_argument);
  SystolicConfig cfg2;
  cfg2.freq_mhz = 0.0;
  EXPECT_THROW(SystolicArray{cfg2}, std::invalid_argument);
}

TEST(Gpu, LaunchOverheadFloorsLatency) {
  const auto workload = vit::build_workload(vit::ViTConfig::student(), 1);
  GpuConfig cfg;
  const SimReport r = GpuModel(cfg).run(workload);
  EXPECT_GE(r.total_micros,
            cfg.kernel_launch_us *
                static_cast<double>(workload.kernel_count()));
}

TEST(Gpu, OccupancyPenalisesTinyKernels) {
  GpuModel gpu;
  // Same FLOPs, one big vs many small: the batched shape is faster.
  vit::InferenceWorkload big;
  big.gemms.push_back(gemm(512, 512, 512));
  vit::InferenceWorkload small;
  for (int i = 0; i < 64; ++i) small.gemms.push_back(gemm(64, 64, 512));
  const double t_big = gpu.run(big, 10.0).total_micros;
  const double t_small = gpu.run(small, 10.0).total_micros;
  EXPECT_LT(t_big, t_small);
}

TEST(Gpu, EnergyScalesWithSystemPower) {
  const auto workload = vit::build_workload(vit::ViTConfig::student(), 1);
  GpuConfig low;
  low.system.idle_w = 1.0;
  GpuConfig high = low;
  high.system.idle_w = 5.0;
  EXPECT_LT(GpuModel(low).run(workload).frame_energy_mj,
            GpuModel(high).run(workload).frame_energy_mj);
}

TEST(Comparison, RatiosComputedCorrectly) {
  SimReport base;
  base.total_micros = 100.0;
  base.dynamic_energy_uj = 10.0;
  base.frame_energy_mj = 50.0;
  SimReport cand;
  cand.total_micros = 25.0;
  cand.dynamic_energy_uj = 2.0;
  cand.frame_energy_mj = 30.0;
  const Comparison c = compare(base, cand);
  EXPECT_NEAR(c.speedup, 4.0, 1e-9);
  EXPECT_NEAR(c.dynamic_energy_ratio, 0.2, 1e-9);
  EXPECT_NEAR(c.frame_energy_ratio, 0.6, 1e-9);
}

TEST(Headline, DeploymentPointReproducesPaperRatios) {
  // T2/T3 headline: at the 24 px / batch-1 deployment point the accelerator
  // must land near the paper's 3.5x speedup and ~40% energy reduction.
  const auto workload = vit::build_workload(vit::ViTConfig::student(), 1);
  const SimReport gpu = GpuModel().run(workload);
  const SimReport acc = SystolicArray().run(workload);
  const Comparison c = compare(gpu, acc);
  EXPECT_GT(c.speedup, 3.0);
  EXPECT_LT(c.speedup, 4.2);
  EXPECT_GT(c.frame_energy_ratio, 0.5);
  EXPECT_LT(c.frame_energy_ratio, 0.7);
}

TEST(Report, TableRendersAllLayers) {
  const auto workload = vit::build_workload(vit::ViTConfig::student(), 1);
  const SimReport r = SystolicArray().run(workload);
  const std::string table = r.to_table();
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("patch_embed"), std::string::npos);
  EXPECT_NE(table.find("qkv"), std::string::npos);
}

}  // namespace
}  // namespace itask::accel
