#include "quant/calibrate.h"

#include <algorithm>
#include <cmath>

namespace itask::quant {

const char* calib_method_name(CalibMethod m) {
  switch (m) {
    case CalibMethod::kMinMax: return "minmax";
    case CalibMethod::kPercentile: return "percentile";
    case CalibMethod::kEntropy: return "entropy";
  }
  return "?";
}

void MinMaxCalibrator::observe(const Tensor& activations) {
  for (float v : activations.data()) {
    if (!seen_) {
      lo_ = hi_ = v;
      seen_ = true;
    } else {
      lo_ = std::min(lo_, v);
      hi_ = std::max(hi_, v);
    }
  }
}

QuantParams MinMaxCalibrator::params() const {
  ITASK_CHECK(seen_, "MinMaxCalibrator: no observations");
  return QuantParams::asymmetric(lo_, hi_);
}

PercentileCalibrator::PercentileCalibrator(float percentile, int64_t bins)
    : percentile_(percentile), bins_(bins) {
  ITASK_CHECK(percentile > 50.0f && percentile <= 100.0f,
              "PercentileCalibrator: percentile out of range");
}

void PercentileCalibrator::observe(const Tensor& activations) {
  if (!seen_) {
    lo_ = hi_ = activations.numel() > 0 ? activations[0] : 0.0f;
    seen_ = true;
  }
  for (float v : activations.data()) {
    lo_ = std::min(lo_, v);
    hi_ = std::max(hi_, v);
  }
  samples_.push_back(activations);
}

QuantParams PercentileCalibrator::params() const {
  ITASK_CHECK(seen_, "PercentileCalibrator: no observations");
  std::vector<float> all;
  for (const Tensor& t : samples_)
    all.insert(all.end(), t.data().begin(), t.data().end());
  std::sort(all.begin(), all.end());
  const double tail = (100.0 - static_cast<double>(percentile_)) / 100.0 / 2.0;
  const size_t n = all.size();
  const size_t lo_idx = static_cast<size_t>(tail * static_cast<double>(n));
  const size_t hi_idx =
      n - 1 - static_cast<size_t>(tail * static_cast<double>(n));
  return QuantParams::asymmetric(all[lo_idx], all[std::max(lo_idx, hi_idx)]);
}

EntropyCalibrator::EntropyCalibrator(int64_t bins) : bins_(bins) {
  ITASK_CHECK(bins >= 256, "EntropyCalibrator: need at least 256 bins");
}

void EntropyCalibrator::observe(const Tensor& activations) {
  for (float v : activations.data()) {
    if (!seen_) {
      lo_ = hi_ = v;
      seen_ = true;
    }
    pending_.push_back(v);
    amax_ = std::max(amax_, std::abs(v));
    lo_ = std::min(lo_, v);
    hi_ = std::max(hi_, v);
  }
}

QuantParams EntropyCalibrator::params() const {
  ITASK_CHECK(seen_, "EntropyCalibrator: no observations");
  const float amax = std::max(amax_, 1e-8f);
  const float width = amax / static_cast<float>(bins_);
  std::vector<double> hist(static_cast<size_t>(bins_), 0.0);
  for (float v : pending_) {
    const int64_t bin = std::min<int64_t>(
        bins_ - 1, static_cast<int64_t>(std::abs(v) / width));
    hist[static_cast<size_t>(bin)] += 1.0;
  }
  // Try clip thresholds from bins_/8 up to bins_; pick minimal KL between the
  // clipped reference distribution and its 128-level quantization.
  constexpr int64_t kLevels = 128;
  double best_kl = 1e300;
  int64_t best_t = bins_;
  for (int64_t t = bins_ / 8; t <= bins_; t += bins_ / 64) {
    // Reference: bins [0, t) plus all clipped mass lumped into bin t-1.
    std::vector<double> ref(hist.begin(), hist.begin() + t);
    double clipped = 0.0;
    for (int64_t i = t; i < bins_; ++i) clipped += hist[static_cast<size_t>(i)];
    ref.back() += clipped;
    // Candidate: collapse the *unclipped* bins [0, t) into kLevels groups and
    // re-expand. Building Q from the clip-lumped reference would make the
    // clipped tail cancel in the KL and bias the search toward maximal
    // clipping (TensorRT builds Q from the raw bins for the same reason).
    std::vector<double> q(static_cast<size_t>(t), 0.0);
    const double group = static_cast<double>(t) / kLevels;
    for (int64_t level = 0; level < kLevels; ++level) {
      // Exact partition of [0, t): overlapping windows would double-count
      // mass and can drive the (pseudo-)KL negative.
      const int64_t s = static_cast<int64_t>(level * group);
      const int64_t e = level + 1 == kLevels
                            ? t
                            : std::min<int64_t>(
                                  t, static_cast<int64_t>((level + 1) * group));
      double mass = 0.0;
      int64_t nonzero = 0;
      for (int64_t i = s; i < e; ++i) {
        mass += hist[static_cast<size_t>(i)];
        if (hist[static_cast<size_t>(i)] > 0.0) ++nonzero;
      }
      if (nonzero == 0) continue;
      const double share = mass / static_cast<double>(nonzero);
      for (int64_t i = s; i < e; ++i)
        if (hist[static_cast<size_t>(i)] > 0.0)
          q[static_cast<size_t>(i)] = share;
    }
    // KL(ref || q), normalised.
    double ref_sum = 0.0, q_sum = 0.0;
    for (double v : ref) ref_sum += v;
    for (double v : q) q_sum += v;
    if (ref_sum <= 0.0 || q_sum <= 0.0) continue;
    double kl = 0.0;
    for (int64_t i = 0; i < t; ++i) {
      const double p = ref[static_cast<size_t>(i)] / ref_sum;
      // Epsilon-smooth q: p > 0 with q == 0 (e.g. clipped mass lumped into
      // an empty bin) must register as a large penalty, not be skipped —
      // skipping it makes the pseudo-KL negative and corrupts the search.
      const double qq =
          std::max(q[static_cast<size_t>(i)] / q_sum, 1e-12);
      if (p > 0.0) kl += p * std::log(p / qq);
    }
    if (kl < best_kl) {
      best_kl = kl;
      best_t = t;
    }
  }
  const float clip = static_cast<float>(best_t) * width;
  // Clamp to the observed range: one-sided activation distributions (e.g.
  // post-GELU) should not waste half the INT8 range on unused sign space.
  return QuantParams::asymmetric(std::max(-clip, lo_), std::min(clip, hi_));
}

std::unique_ptr<Calibrator> make_calibrator(CalibMethod method) {
  switch (method) {
    case CalibMethod::kMinMax: return std::make_unique<MinMaxCalibrator>();
    case CalibMethod::kPercentile:
      return std::make_unique<PercentileCalibrator>();
    case CalibMethod::kEntropy: return std::make_unique<EntropyCalibrator>();
  }
  return nullptr;
}

}  // namespace itask::quant
