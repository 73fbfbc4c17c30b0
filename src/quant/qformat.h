// INT8 quantization formats and scalar helpers.
//
// Conventions (the standard edge-deployment recipe, ablated in A1):
//  * weights: symmetric (zero_point = 0), per-channel or per-tensor scales;
//  * activations: asymmetric per-tensor with a calibrated [min, max] range.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace itask::quant {

struct PackedWeightInt8;  // quant/int8_gemm.h

inline constexpr int32_t kQMin = -128;
inline constexpr int32_t kQMax = 127;

/// Per-tensor affine quantization parameters: q = round(x/scale) + zero_point.
/// `bits` selects the integer grid (8 by default; 4/6 for the low-bit
/// extension benchmarked in A4); values are always *stored* in int8.
struct QuantParams {
  float scale = 1.0f;
  int32_t zero_point = 0;
  int32_t qmin = kQMin;
  int32_t qmax = kQMax;

  /// Builds asymmetric params covering [lo, hi] on a `bits`-wide grid.
  static QuantParams asymmetric(float lo, float hi, int bits = 8);
  /// Builds symmetric params covering [-amax, amax] (zero_point = 0).
  static QuantParams symmetric(float amax, int bits = 8);

  /// Rebuilds these params on a different bit width, preserving the
  /// representable range (used to lower calibrated 8-bit ranges to 4/6 bit).
  QuantParams with_bits(int bits) const;

  int8_t quantize(float x) const;
  float dequantize(int8_t q) const {
    return (static_cast<int32_t>(q) - zero_point) * scale;
  }
};

/// Quantizes a tensor with per-tensor params.
std::vector<int8_t> quantize_tensor(const Tensor& t, const QuantParams& p);

/// Same, writing into caller storage (`out.size()` must equal `t.numel()`).
/// The serving hot path uses this with arena-backed scratch so the per-call
/// activation quantize allocates nothing.
void quantize_tensor_into(const Tensor& t, const QuantParams& p,
                          std::span<int8_t> out);

/// Dequantizes back to FP32 (round-trip testing / debugging).
Tensor dequantize_tensor(const std::vector<int8_t>& q, const Shape& shape,
                         const QuantParams& p);

/// A quantized 2-D weight matrix [out, in]: symmetric, optionally
/// per-channel (one scale per output row).
struct QuantizedWeight {
  int64_t out = 0;
  int64_t in = 0;
  std::vector<int8_t> data;  // row-major [out, in]
  std::vector<float> scales; // size 1 (per-tensor) or `out` (per-channel)
  /// Per-output-row Σw, precomputed once at quantization time so the GEMM's
  /// activation zero-point correction (a−zp)·w = a·w − zp·Σw needs no
  /// per-call weight pass.
  std::vector<int32_t> row_sums;  // size `out`
  /// The weight packed into the kernel's int16 k-pair panels (consumed by
  /// qlinear_forward → int8_gemm_bt_prepacked). Set by
  /// quantize_weight_packed; null in a bare quantize_weight result.
  std::shared_ptr<const PackedWeightInt8> packed;

  float scale_for_row(int64_t row) const {
    return scales.size() == 1 ? scales[0]
                              : scales[static_cast<size_t>(row)];
  }
};

enum class WeightGranularity { kPerTensor, kPerChannel };

/// Per-output-row sums of a row-major [out, in] int8 weight matrix — the
/// zero-point-correction table stored in QuantizedWeight::row_sums.
std::vector<int32_t> weight_row_sums(std::span<const int8_t> w, int64_t out,
                                     int64_t in);

/// Quantizes an FP32 weight matrix [out, in] symmetrically.
QuantizedWeight quantize_weight(const Tensor& weight,
                                WeightGranularity granularity, int bits = 8);

/// Fake-quantization: quantize-dequantize `weight` in place on the given
/// grid (straight-through estimator's forward half; used by QAT).
void fake_quantize_weight(Tensor& weight, WeightGranularity granularity,
                          int bits);

/// Mean-squared quantization error of a round trip (diagnostics, tests, A1).
float quantization_mse(const Tensor& t, const QuantParams& p);

}  // namespace itask::quant
