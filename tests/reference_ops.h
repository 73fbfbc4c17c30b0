// Tensor ops no program calls, kept as oracles and helpers for the tests:
// the composed Linear (matmul_bt + add_rowwise forward, matmul_at +
// sum_to_lastdim gradients) that test_nn_layers and test_quant check the
// layers against, and the small helpers test_ops exercises alongside the
// library's GEMM and softmax.
#pragma once

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace itask::refops {

inline Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a;
  for (float& v : out.data()) v += s;
  return out;
}

/// Adds a 1-D bias of length C to every row of a [..., C] tensor.
inline Tensor add_rowwise(const Tensor& a, const Tensor& bias) {
  ITASK_CHECK(bias.ndim() == 1, "add_rowwise: bias must be 1-D");
  ITASK_CHECK(a.ndim() >= 1, "add_rowwise: input must be at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  ITASK_CHECK(bias.dim(0) == c, "add_rowwise: bias length mismatch");
  Tensor out = a;
  auto o = out.data();
  auto bd = bias.data();
  const int64_t rows = a.numel() / c;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = o.data() + r * c;
    for (int64_t j = 0; j < c; ++j) row[j] += bd[j];
  }
  return out;
}

/// [M, K] x [N, K]^T -> [M, N] (i.e. B is stored row-major transposed).
inline Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_bt: need 2-D operands");
  ITASK_CHECK(a.dim(1) == b.dim(1), "matmul_bt: inner dimension mismatch");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  gemm::gemm_bt(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

/// [K, M]^T x [K, N] -> [M, N].
inline Tensor matmul_at(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_at: need 2-D operands");
  ITASK_CHECK(a.dim(0) == b.dim(0), "matmul_at: inner dimension mismatch");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  gemm::gemm_at(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

/// Transpose of a 2-D tensor.
inline Tensor transpose2d(const Tensor& a) {
  ITASK_CHECK(a.ndim() == 2, "transpose2d: need 2-D operand");
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  auto ad = a.data();
  auto od = out.data();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) od[j * m + i] = ad[i * n + j];
  return out;
}

/// Sums over all leading axes, producing a 1-D tensor of the trailing size.
/// (This is the bias-gradient reduction.)
inline Tensor sum_to_lastdim(const Tensor& a) {
  ITASK_CHECK(a.ndim() >= 1, "sum_to_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  Tensor out({c});
  auto o = out.data();
  auto ad = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = ad.data() + r * c;
    for (int64_t j = 0; j < c; ++j) o[j] += row[j];
  }
  return out;
}

/// L2 norm of all elements.
inline float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace itask::refops
