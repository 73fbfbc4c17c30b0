// INT8 GEMM with INT32 accumulation — the numeric core of the quantized
// runtime and the operation the systolic-array simulator models.
//
// Two implementations share the semantics:
//  * int8_gemm_bt — the naive triple loop, retained as the parity oracle
//    (the functional systolic array asserts against it) and the "before"
//    side of bench_k0_gemm;
//  * the blocked kernel: one loop nest over a weight packed once into int16
//    panels when it is quantized and an activation operand packed whole per
//    call, with int32 register-tile accumulators and a precomputed
//    per-output-row Σw table for the zero-point correction. Two producers
//    build the activation panels: qlinear_forward quantizes its FP32 input
//    straight into them (quantize_activations_packed), and
//    int8_gemm_bt_prepacked widens an int8 input into them
//    (pack_activations_int8).
// Integer addition is associative, so both produce bit-identical results.
#pragma once

#include <cstdint>
#include <span>

#include "quant/qformat.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace itask::quant {

/// acc[m, n] = sum_k (a[m, k] - a_zero_point) * w[n, k]
/// (weights are symmetric so no weight zero-point term appears).
void int8_gemm_bt(std::span<const int8_t> a, int32_t a_zero_point,
                  std::span<const int8_t> w, std::span<int32_t> acc,
                  int64_t m, int64_t k, int64_t n);

/// A weight matrix widened and packed ONCE into int16 k-pair NR-lane panels
/// (the vpmaddwd / AVX512-VNNI operand shape), stored in the (KC-slab,
/// NC-slab) order the GEMM loop nest visits them. Built by
/// quantize_weight_packed when a layer is constructed; read-only after
/// construction, safe to share across inference workers.
struct PackedWeightInt8 {
  int64_t k = 0;  // inner (reduction) extent
  int64_t n = 0;  // output columns (= weight rows in the [N,K] layout)
  std::vector<int16_t> data;

  int64_t bytes() const {
    return static_cast<int64_t>(data.size() * sizeof(int16_t));
  }
};

/// Packs a row-major [N, K] int8 weight matrix for int8_gemm_bt_prepacked.
PackedWeightInt8 pack_weights_int8(std::span<const int8_t> w, int64_t n,
                                   int64_t k);

/// int16 elements of an [m, k] activation operand in the kernel's panel
/// layout: per 256-deep k slab, 8-row panels of int16 k-pairs, zero-padded
/// in the row tail and the odd-k slot.
int64_t activation_panel_size(int64_t m, int64_t k);

/// Widening A producer: row-major int8 [m, k] → panels
/// (`panels.size()` == activation_panel_size(m, k)).
void pack_activations_int8(std::span<const int8_t> a, int64_t m, int64_t k,
                           std::span<int16_t> panels);

/// Quantizing A producer: row-major FP32 [m, k] → the panels of
/// quantize_tensor(x, p), in one pass (QuantizeLanes on AVX2 builds,
/// QuantParams::quantize otherwise).
void quantize_activations_packed(std::span<const float> x,
                                 const QuantParams& p, int64_t m, int64_t k,
                                 std::span<int16_t> panels);

/// The blocked INT8 GEMM over a packed weight: acc[m, n] = (a − zp)·wᵀ, with
/// `a` widened into panels first (pack_activations_int8). `w_row_sums` is
/// the per-output-row Σw table (QuantizedWeight::row_sums),
/// so the zero-point correction acc = a·w − zp·Σw costs one multiply per
/// output instead of a weight pass per call. Bit-identical to int8_gemm_bt.
void int8_gemm_bt_prepacked(std::span<const int8_t> a, int32_t a_zero_point,
                            const PackedWeightInt8& w,
                            std::span<const int32_t> w_row_sums,
                            std::span<int32_t> acc, int64_t m);

/// quantize_weight plus the packed panels qlinear_forward runs on — the
/// serving form of a weight, built once when a QLinearLayer is constructed.
/// (QAT's fake quantization calls plain quantize_weight every step and
/// packs nothing.)
QuantizedWeight quantize_weight_packed(const Tensor& weight,
                                       WeightGranularity granularity,
                                       int bits = 8);

/// Stacks quantized weights that share an input extent into one serving
/// weight: their rows in order, each row keeping its own scale (a
/// per-tensor part repeats its one scale) and Σw, packed as
/// quantize_weight_packed packs. The GEMM over the stack gives each row the
/// same int32 sums as the part's own GEMM (a head bank's weight).
QuantizedWeight stack_weights_packed(std::span<const QuantizedWeight> parts);

/// One output of a quantized linear: the next `cols` rows of the weight,
/// their bias (may be null) and the epilogue fused into the dequant pass.
/// `out` receives [..., cols] unless the epilogue adds into a residual.
struct QLinearOutput {
  int64_t cols = 0;
  const Tensor* bias = nullptr;
  ops::Epilogue epilogue;
  Tensor* out = nullptr;
};

/// Full quantized linear: quantizes `x` with `act` straight into A panels
/// (quantize_activations_packed), runs the INT8 loop nest against `weight`
/// once, and dequantizes with per-row weight scales, adding each output's
/// bias and applying its epilogue in the same pass. The outputs split the
/// weight's rows in order (their `cols` sum to weight.out), so layers that
/// read one input run as one GEMM (a head bank). x: [..., in] FP32.
/// `weight` must carry its packed panels and row sums
/// (quantize_weight_packed); a bare quantize_weight result is rejected.
void qlinear_forward(const Tensor& x, const QuantParams& act,
                     const QuantizedWeight& weight,
                     std::span<const QLinearOutput> outputs);

/// The one-output form: returns [..., out] (empty with ep.residual).
Tensor qlinear_forward(const Tensor& x, const QuantParams& act,
                       const QuantizedWeight& weight, const Tensor* bias,
                       const ops::Epilogue& ep = {});

}  // namespace itask::quant
