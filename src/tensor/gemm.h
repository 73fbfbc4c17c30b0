// Blocked, packed GEMM kernel layer — the single fp32 inner kernel every
// matmul/bmm variant in ops.h routes through (DESIGN.md §2 row 13).
//
// Strategy (the classic three-loop blocking used by BLIS-family libraries):
//  * k is split into KC slabs, n into NC slabs, m into MC slabs;
//  * within a slab, A is packed into MR-row panels and B into NR-column
//    panels, both k-major and zero-padded to full tiles, so the micro-kernel
//    always walks two contiguous streams with no edge handling;
//  * the micro-kernel keeps an MR×NR accumulator tile in registers,
//    vectorizing across the NR columns — independent outputs, not a
//    reduction, so it vectorizes without -ffast-math — and has no
//    data-dependent branches in the inner loop.
//
// The three storage variants (NN, B-transposed, A-transposed) differ only in
// the pack routines; the micro-kernel is shared.
//
// Memory: each call takes its pack panels (one A slab, one B block — at most
// MC×KC and NC×KC floats) from ScratchVec, so under a bound ArenaScope they
// come from the worker's arena, under an ArenaMark that hands them back when
// the call returns, and plan_workspace() sizes them; off an arena (training)
// they are per-call heap buffers. No pack storage outlives a call.
//
// Semantics: every kernel *accumulates* (C += op(A)·op(B)); callers pass a
// zeroed C for a plain product. Results are deterministic call-to-call but
// differ from the naive reference kernels by fp32 reassociation (blocked
// summation order); see EXPERIMENTS.md K0 for the measured drift.
#pragma once

#include <cstdint>
#include <vector>

namespace itask::gemm {

/// Micro-tile extents. 8×16 fp32 accumulators = eight 512-bit (or sixteen
/// 256-bit) vector registers — sized for the FMA units this repo targets
/// with -march=native.
inline constexpr int64_t kMR = 8;
inline constexpr int64_t kNR = 16;

/// Reduction slab extent: the micro-kernel sums k in slabs of kKC, each
/// an fma chain from 0 that is then added to C.
inline constexpr int64_t kKC = 256;

/// C[M,N] += A[M,K] · B[K,N] (all row-major).
void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

/// C[M,N] += A[M,K] · B[N,K]ᵀ (B stored row-major transposed — the Linear
/// weight layout).
void gemm_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

/// C[M,N] += A[K,M]ᵀ · B[K,N] (the weight-gradient layout).
void gemm_at(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

/// A weight matrix packed ONCE into the exact k-major NR-column panels the
/// blocked driver otherwise builds per call, stored in the (KC-slab,
/// NC-slab) order the driver visits them. Built at publish time for the
/// immutable models a core::DeploymentSnapshot captures (nn::Linear::
/// prepack_for_serving), so the per-request B pack on the serving path
/// drops to zero. Read-only after construction — safe to share across
/// concurrent inference workers.
struct PackedB {
  int64_t k = 0;  // inner (reduction) extent
  int64_t n = 0;  // output columns (= weight rows in the [N,K] layout)
  std::vector<float> data;

  int64_t bytes() const {
    return static_cast<int64_t>(data.size() * sizeof(float));
  }
};

/// Packs a row-major [N, K] weight matrix (the Linear/Bᵀ layout) for
/// gemm_bt_prepacked.
PackedB pack_weights_bt(const float* b, int64_t k, int64_t n);

/// C[M,N] += A[M,K] · Bᵀ with B pre-packed. Bit-identical to gemm_bt on the
/// same operands: the panels, micro-kernel and loop order are the same —
/// only where the packed B lives differs.
void gemm_bt_prepacked(const float* a, const PackedB& b, float* c, int64_t m);

/// The pre-kernel-layer naive triple loops, retained verbatim as the parity
/// baseline for tests and the old-vs-new comparison in bench_k0_gemm. Same
/// accumulate semantics as the packed kernels.
namespace reference {

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void gemm_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void gemm_at(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

}  // namespace reference

}  // namespace itask::gemm
