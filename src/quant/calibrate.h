// Activation-range calibrators for post-training quantization (ablated in
// experiment A1): min-max, percentile, and entropy (KL) calibration.
#pragma once

#include <memory>
#include <vector>

#include "quant/qformat.h"
#include "tensor/tensor.h"

namespace itask::quant {

enum class CalibMethod { kMinMax, kPercentile, kEntropy };

const char* calib_method_name(CalibMethod m);

/// Observes activation tensors during calibration forward passes; params()
/// then gives the asymmetric per-tensor QuantParams of what it saw.
class Calibrator {
 public:
  virtual ~Calibrator() = default;
  virtual void observe(const Tensor& activations) = 0;
  virtual QuantParams params() const = 0;
};

/// Exact running min / max.
class MinMaxCalibrator : public Calibrator {
 public:
  void observe(const Tensor& activations) override;
  QuantParams params() const override;

 private:
  float lo_ = 0.0f;
  float hi_ = 0.0f;
  bool seen_ = false;
};

/// Clips to the given two-sided percentile (e.g. 99.9) using a histogram.
class PercentileCalibrator : public Calibrator {
 public:
  explicit PercentileCalibrator(float percentile = 99.9f, int64_t bins = 2048);
  void observe(const Tensor& activations) override;
  QuantParams params() const override;

 private:
  float percentile_;
  int64_t bins_;
  float lo_ = 0.0f, hi_ = 0.0f;
  bool seen_ = false;
  std::vector<Tensor> samples_;  // kept tensors (small models ⇒ cheap)
};

/// KL-divergence calibration à la TensorRT: picks the clip threshold whose
/// quantized distribution best matches the observed one.
class EntropyCalibrator : public Calibrator {
 public:
  explicit EntropyCalibrator(int64_t bins = 1024);
  void observe(const Tensor& activations) override;
  QuantParams params() const override;

 private:
  int64_t bins_;
  float amax_ = 0.0f;
  float lo_ = 0.0f;
  float hi_ = 0.0f;
  bool seen_ = false;
  std::vector<double> histogram_;  // of |x|, rebinned lazily
  float bin_width_ = 0.0f;
  std::vector<float> pending_;     // values seen before the range settles
};

std::unique_ptr<Calibrator> make_calibrator(CalibMethod method);

}  // namespace itask::quant
