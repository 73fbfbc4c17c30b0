// Cycle-level model of a weight-stationary INT8 systolic-array accelerator
// with double-buffered SRAM and a DMA engine (DESIGN.md §4: substitutes the
// paper's "hardware acceleration circuit").
//
// Dataflow model per GEMM [m, k] × [k, n]:
//  * the PE array holds a (rows × cols) tile of the weight matrix
//    (k mapped to rows, n mapped to cols) ⇒ ceil(k/rows)·ceil(n/cols) tiles;
//  * for each weight tile, m activation rows stream through, one per cycle,
//    plus (rows + cols) pipeline fill/drain cycles;
//  * weight loading takes `rows` cycles per tile and overlaps with compute
//    when double buffering is enabled;
//  * DMA traffic: weights cross DRAM once per inference when the model fits
//    in SRAM (weight residency), otherwise once per use; activations cross
//    SRAM once per n-tile strip; the input frames and detection outputs
//    cross DRAM once (InferenceWorkload::io_bytes_int8).
// Vector ops (softmax/LN/GELU) run on a `vector_lanes`-wide SIMD unit.
#pragma once

#include "accel/energy.h"
#include "accel/report.h"
#include "vit/workload.h"

namespace itask::accel {

struct SystolicConfig {
  int64_t rows = 16;            // PE array rows (k dimension)
  int64_t cols = 16;            // PE array cols (n dimension)
  // 225 MHz: a conservative edge-ASIC clock. Together with the Jetson-class
  // GPU constants this lands the 24 px deployment point at ~3.5x speedup —
  // the calibration is documented in EXPERIMENTS.md (T2).
  double freq_mhz = 225.0;
  int64_t sram_kb = 256;        // unified weight/activation SRAM
  double dram_bw_gbps = 4.0;    // DMA bandwidth
  int64_t vector_lanes = 16;
  bool double_buffered = true;
  bool weights_resident = true; // weights staged once, reused across frames
  EnergyTable energy;
  SystemPower system = accelerator_system_power();

  /// Area constants (representative 7 nm figures: INT8 MAC PE ≈ 0.0008 mm²
  /// incl. registers/control, SRAM ≈ 0.012 mm²/KiB, vector lane ≈ 0.001 mm²).
  double pe_area_mm2 = 0.0008;
  double sram_area_mm2_per_kb = 0.012;
  double vector_lane_area_mm2 = 0.001;

  /// Representative edge-ASIC configuration (the iTask circuit).
  static SystolicConfig edge_asic();

  int64_t pe_count() const { return rows * cols; }

  /// Estimated silicon area of the accelerator macro.
  double area_mm2() const {
    return static_cast<double>(pe_count()) * pe_area_mm2 +
           static_cast<double>(sram_kb) * sram_area_mm2_per_kb +
           static_cast<double>(vector_lanes) * vector_lane_area_mm2;
  }
};

/// Per-GEMM simulation detail (also unit-tested against closed forms).
struct GemmTiming {
  int64_t compute_cycles = 0;
  int64_t weight_load_cycles = 0;  // non-overlapped portion
  int64_t total_cycles = 0;
  int64_t tiles = 0;
  int64_t dram_bytes = 0;
  int64_t sram_bytes = 0;
  double utilization = 0.0;
};

class SystolicArray {
 public:
  explicit SystolicArray(SystolicConfig config = SystolicConfig::edge_asic());

  const SystolicConfig& config() const { return config_; }

  /// Simulates one GEMM op.
  GemmTiming simulate_gemm(const vit::GemmOp& op) const;

  /// Simulates a full inference workload at `target_fps` (for the
  /// energy-per-frame metric). Weight DMA is counted once when resident.
  SimReport run(const vit::InferenceWorkload& workload,
                double target_fps = 30.0) const;

 private:
  SystolicConfig config_;
};

}  // namespace itask::accel
