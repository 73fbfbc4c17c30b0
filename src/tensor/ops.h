// Free-function tensor operations: GEMM, elementwise math, reductions,
// softmax family. These are the numeric kernels the nn/ layers compose.
//
// Conventions:
//  * 2-D matmul treats tensors as [M, K] x [K, N] -> [M, N].
//  * Batched matmul operates on [B, M, K] x [B, K, N] -> [B, M, N].
//  * "lastdim" ops apply independently over the trailing axis.
#pragma once

#include "tensor/tensor.h"

namespace itask::ops {

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor mul_scalar(const Tensor& a, float s);
void add_inplace(Tensor& a, const Tensor& b);
void axpy_inplace(Tensor& a, float alpha, const Tensor& b);  // a += alpha*b

// ---- matrix products ------------------------------------------------------

/// [M, K] x [K, N] -> [M, N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// [B, M, K] x [B, K, N] -> [B, M, N].
Tensor bmm(const Tensor& a, const Tensor& b);

/// [B, M, K] x [B, N, K]^T -> [B, M, N].
Tensor bmm_bt(const Tensor& a, const Tensor& b);

/// [B, K, M]^T x [B, K, N] -> [B, M, N].
Tensor bmm_at(const Tensor& a, const Tensor& b);

// ---- nonlinearities -------------------------------------------------------

Tensor gelu(const Tensor& a);        // tanh approximation
/// gelu()'s arithmetic on n contiguous floats, in place.
void gelu_row(float* row, int64_t n);
Tensor gelu_grad(const Tensor& input, const Tensor& grad_out);
Tensor sigmoid(const Tensor& a);

// ---- linear-layer epilogues ----------------------------------------------

/// What a served linear layer does with its output y = x·Wᵀ + b in the pass
/// that writes it (vit/graph.h): keep it, apply GELU in place, or add it
/// into `residual` (the residual stream, shaped like y) and return nothing.
struct Epilogue {
  bool gelu = false;
  Tensor* residual = nullptr;

  static constexpr Epilogue bias() { return {}; }
  static constexpr Epilogue bias_gelu() { return {true, nullptr}; }
  static constexpr Epilogue add_to(Tensor& stream) { return {false, &stream}; }
};

/// Applies `ep` to a finished y: ops::gelu, or ops::add into the residual
/// (returning an empty tensor). The unfused form of what the serving
/// applies fuse into their output pass (INT8 calibration runs it).
Tensor apply_epilogue(Tensor y, const Epilogue& ep);

// ---- softmax family (over the trailing axis) ------------------------------

Tensor softmax_lastdim(const Tensor& a);
/// softmax_lastdim's arithmetic on one contiguous row of n > 0 floats, in
/// place: the row max, std::exp(x − max) summed left to right, then × 1/sum.
void softmax_row(float* row, int64_t n);
Tensor log_softmax_lastdim(const Tensor& a);

/// Backward of softmax given its *output* y and upstream gradient g:
/// dx = y * (g - sum(g*y)).
Tensor softmax_backward_lastdim(const Tensor& y, const Tensor& g);

/// p rounded to float before its consumer sees it: the volatile round trip
/// keeps the compiler from contracting the product into the add that
/// consumes it. For kernels that write out the rounding GCC compiled.
inline float rounded(float p) {
  volatile float v = p;
  return v;
}

/// softmax_backward_lastdim's arithmetic on one row of n > 0 floats:
/// out[j] = y[j]·(g[j] − dot). `out` may alias `g`. Every rounding is
/// explicit, so no build setting moves its bits: dot sums the first
/// 4⌊n/4⌋ terms as rounded y·g and the last n mod 4 as fma(y, g, dot),
/// in order (what GCC made of the plain loop at -O3 -march=native).
void softmax_backward_row(const float* y, const float* g, int64_t n,
                          float* out);

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);

// ---- shape utilities ------------------------------------------------------

/// Stacks equal-shaped tensors along a new leading axis.
Tensor stack(const std::vector<Tensor>& parts);

}  // namespace itask::ops
