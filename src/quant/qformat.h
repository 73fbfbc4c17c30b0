// INT8 quantization formats and scalar helpers.
//
// Conventions (the standard edge-deployment recipe, ablated in A1):
//  * weights: symmetric (zero_point = 0), per-channel or per-tensor scales;
//  * activations: asymmetric per-tensor with a calibrated [min, max] range.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

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

  /// The one quantize arithmetic, saturating: y = x/scale, clamped in float
  /// to [qmin−zp, qmax−zp], rounded half away from zero (trunc, then ±1 when
  /// |y − trunc(y)| ≥ 0.5), plus zero_point. ±inf saturate; NaN maps to
  /// zero_point. QuantizeLanes applies the same steps eight lanes at a time.
  int8_t quantize(float x) const {
    float y = x / scale;
    if (std::isnan(y)) y = 0.0f;
    y = std::clamp(y, static_cast<float>(qmin - zero_point),
                   static_cast<float>(qmax - zero_point));
    const float r = std::trunc(y);
    // floor(2·|y − r|) is 1 exactly when |y − r| ≥ 0.5 (doubling is exact),
    // which keeps the step branch-free.
    const float away = std::copysign(std::floor(2.0f * std::abs(y - r)), y);
    return static_cast<int8_t>(static_cast<int32_t>(r + away) + zero_point);
  }
  float dequantize(int8_t q) const {
    return (static_cast<int32_t>(q) - zero_point) * scale;
  }
};

#if defined(__AVX2__)
/// QuantParams::quantize on eight FP32 lanes, bit for bit: the kernel behind
/// quantize_tensor_into and the INT8 GEMM's activation-panel producer.
/// Returns the codes as int32 lanes in [qmin, qmax].
class QuantizeLanes {
 public:
  explicit QuantizeLanes(const QuantParams& p)
      : scale_(_mm256_set1_ps(p.scale)),
        lo_(_mm256_set1_ps(static_cast<float>(p.qmin - p.zero_point))),
        hi_(_mm256_set1_ps(static_cast<float>(p.qmax - p.zero_point))),
        zp_(_mm256_set1_epi32(p.zero_point)) {}

  __m256i operator()(__m256 x) const {
    __m256 y = _mm256_div_ps(x, scale_);
    y = _mm256_and_ps(y, _mm256_cmp_ps(y, y, _CMP_ORD_Q));  // NaN → 0
    y = _mm256_min_ps(_mm256_max_ps(y, lo_), hi_);
    const __m256 r =
        _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 frac = _mm256_andnot_ps(sign, _mm256_sub_ps(y, r));
    const __m256 away = _mm256_and_ps(
        _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ),
        _mm256_or_ps(_mm256_set1_ps(1.0f), _mm256_and_ps(sign, y)));
    return _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r, away)),
                            zp_);
  }

 private:
  __m256 scale_, lo_, hi_;
  __m256i zp_;
};
#endif

/// Quantizes a tensor with per-tensor params.
std::vector<int8_t> quantize_tensor(const Tensor& t, const QuantParams& p);

/// Same, writing into caller storage (`out.size()` must equal `t.numel()`):
/// QuantizeLanes over eight elements at a time, scalar quantize on the tail.
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
