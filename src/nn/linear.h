// Fully-connected layer with cached-input backward.
#pragma once

#include <memory>

#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace itask::nn {

/// y = x · Wᵀ + b, where W is [out_features, in_features].
/// Accepts any input rank ≥ 1; all leading axes are treated as rows.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);

  /// Forward pass; caches the input for backward(), which consumes it.
  Tensor forward(const Tensor& input);

  /// Cache-free forward for concurrent inference: numerically identical to
  /// forward() followed by ops::apply_epilogue(·, ep), touches no mutable
  /// state, safe to call from many threads. The bias and `ep` are applied
  /// in place on the GEMM output; with ep.residual the output is added into
  /// it and an empty tensor is returned.
  Tensor infer(const Tensor& input, const ops::Epilogue& ep = {}) const;

  /// Accumulates dW/db and returns dL/dinput (same shape as the cached
  /// input), consuming the cache: a second backward needs a new forward.
  /// An empty grad_out means no gradient reaches this layer: the cache is
  /// dropped, no gradient changes and an empty tensor is returned.
  Tensor backward(const Tensor& grad_out);

  /// Packs the weight into the k-major panel cache gemm_bt_prepacked
  /// consumes, so infer() skips the per-call B pack. Publish-time only —
  /// forward()/backward() keep the per-call pack (training weights change
  /// every step and would go stale against the cache). Idempotent: once
  /// packed, later calls are pure reads.
  void prepack_for_serving() override;
  bool prepacked() const { return packed_ != nullptr; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter* bias() { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Parameter& weight_;
  Parameter* bias_ = nullptr;
  /// Serving-time cache built by prepack_for_serving(); shared so snapshots
  /// holding the same model share one packing.
  std::shared_ptr<const gemm::PackedB> packed_;
  Tensor cached_input_;  // [..., in], as forward() received it
};

}  // namespace itask::nn
