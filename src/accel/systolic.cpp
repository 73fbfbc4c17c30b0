#include "accel/systolic.h"

#include <algorithm>
#include <cmath>

#include "tensor/tensor.h"  // ITASK_CHECK

namespace itask::accel {

SystolicConfig SystolicConfig::edge_asic() { return SystolicConfig{}; }

SystolicArray::SystolicArray(SystolicConfig config) : config_(config) {
  ITASK_CHECK(config_.rows > 0 && config_.cols > 0,
              "SystolicArray: bad PE dimensions");
  ITASK_CHECK(config_.freq_mhz > 0.0, "SystolicArray: bad frequency");
  ITASK_CHECK(config_.vector_lanes > 0, "SystolicArray: bad vector width");
}

GemmTiming SystolicArray::simulate_gemm(const vit::GemmOp& op) const {
  ITASK_CHECK(op.m > 0 && op.k > 0 && op.n > 0, "simulate_gemm: bad dims");
  GemmTiming t;
  const int64_t k_tiles = (op.k + config_.rows - 1) / config_.rows;
  const int64_t n_tiles = (op.n + config_.cols - 1) / config_.cols;
  t.tiles = k_tiles * n_tiles;
  // Streaming m rows through each resident weight tile + pipeline fill/drain.
  t.compute_cycles = t.tiles * (op.m + config_.rows + config_.cols - 2);
  // Weight staging: `rows` cycles per tile through a cols-wide load port.
  const int64_t load = t.tiles * config_.rows;
  if (config_.double_buffered) {
    // Overlapped except the very first tile's load.
    t.weight_load_cycles = std::min<int64_t>(load, config_.rows);
  } else {
    t.weight_load_cycles = load;
  }
  t.total_cycles = t.compute_cycles + t.weight_load_cycles;
  // DRAM: static weights cross once (residency handled by run()); activation
  // inputs/outputs live in SRAM for on-chip-sized models.
  t.dram_bytes = op.weight_bytes_int8();
  // SRAM traffic: inputs re-streamed once per n-tile strip, outputs written
  // once, weights read once.
  t.sram_bytes = op.input_bytes_int8() * n_tiles + op.output_bytes_int8() +
                 op.weight_bytes_int8();
  const double ideal = static_cast<double>(op.macs());
  t.utilization = ideal / (static_cast<double>(t.total_cycles) *
                           static_cast<double>(config_.pe_count()));
  return t;
}

SimReport SystolicArray::run(const vit::InferenceWorkload& workload,
                             double target_fps) const {
  SimReport report;
  report.device = "systolic_" + std::to_string(config_.rows) + "x" +
                  std::to_string(config_.cols);
  const double cycle_us = 1.0 / config_.freq_mhz;
  const int64_t sram_bytes = config_.sram_kb * 1024;
  const bool resident = config_.weights_resident &&
                        workload.total_weight_bytes_int8() <= sram_bytes;

  int64_t total_cycles = 0;
  double dma_us = 0.0;
  double energy_pj = 0.0;

  for (const vit::GemmOp& op : workload.gemms) {
    const GemmTiming t = simulate_gemm(op);
    LayerTiming lt;
    lt.name = op.name;
    lt.cycles = t.total_cycles;
    lt.micros = static_cast<double>(t.total_cycles) * cycle_us;
    lt.macs = op.macs();
    lt.utilization = t.utilization;
    lt.dram_bytes = resident ? 0 : t.dram_bytes;
    double e = static_cast<double>(op.macs()) * config_.energy.int8_mac_pj +
               static_cast<double>(t.sram_bytes) * config_.energy.sram_byte_pj +
               static_cast<double>(lt.dram_bytes) * config_.energy.dram_byte_pj;
    lt.dynamic_energy_uj = e * 1e-6;
    energy_pj += e;
    total_cycles += t.total_cycles;
    if (!resident)
      dma_us += static_cast<double>(t.dram_bytes) /
                (config_.dram_bw_gbps * 1e3);  // bytes / (GB/s) → ns → µs
    report.layers.push_back(std::move(lt));
  }
  for (const vit::VectorOp& op : workload.vector_ops) {
    const int64_t cycles =
        (static_cast<int64_t>(static_cast<double>(op.elements) *
                              op.flops_per_element) +
         config_.vector_lanes - 1) /
        config_.vector_lanes;
    LayerTiming lt;
    lt.name = op.name;
    lt.cycles = cycles;
    lt.micros = static_cast<double>(cycles) * cycle_us;
    const double e = static_cast<double>(op.elements) *
                     op.flops_per_element * config_.energy.vector_op_pj;
    lt.dynamic_energy_uj = e * 1e-6;
    energy_pj += e;
    total_cycles += cycles;
    report.layers.push_back(std::move(lt));
  }

  // Activation I/O over DMA: input frames + detection outputs cross once.
  const auto io_bytes = static_cast<double>(workload.io_bytes_int8);
  dma_us += io_bytes / (config_.dram_bw_gbps * 1e3);
  energy_pj += io_bytes * config_.energy.dram_byte_pj;

  report.total_micros =
      static_cast<double>(total_cycles) * cycle_us + dma_us;
  report.dynamic_energy_uj = energy_pj * 1e-6;
  report.fps_capability = 1e6 / report.total_micros;
  const double frame_us = 1e6 / target_fps;
  ITASK_CHECK(report.total_micros <= frame_us,
              "SystolicArray: workload misses the frame deadline");
  report.frame_energy_mj =
      (config_.system.idle_w * frame_us +
       config_.system.active_w * report.total_micros) * 1e-3 +
      report.dynamic_energy_uj * 1e-3;
  return report;
}

}  // namespace itask::accel
