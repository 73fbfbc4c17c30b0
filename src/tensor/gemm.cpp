#include "tensor/gemm.h"

#include <algorithm>

#include "tensor/arena.h"
#include "tensor/profile.h"

namespace itask::gemm {

namespace {

// Cache-block extents (with kKC, gemm.h): KC·NR and KC·MR panels stay
// L1-resident, a full KC×NC packed B slab stays L2-resident. Model GEMMs in
// this repo are small (K ≤ 256), so most calls see exactly one slab per
// dimension.
constexpr int64_t kMC = 128;
constexpr int64_t kNC = 128;

// Operand storage layouts the packers absorb so one micro-kernel serves all
// three public variants.
enum class ALayout { kMK, kKM };  // row-major [M,K] vs transposed [K,M]
enum class BLayout { kKN, kNK };  // row-major [K,N] vs transposed [N,K]

// GCC/Clang vector extension: an NR-wide float lane. The explicit type is
// what makes the micro-kernel compile to broadcast-FMA — GCC 12's auto-
// vectorizer turns the equivalent scalar loop nest into a slower shuffle
// (vpermt2ps) sequence. aligned(4) keeps loads/stores unaligned-safe.
#if defined(__GNUC__) || defined(__clang__)
#define ITASK_GEMM_VECEXT 1
typedef float vnr
    __attribute__((vector_size(kNR * sizeof(float)), aligned(4)));
#endif

/// Packs the [mc × kc] block of A at (i0, p0) into ceil(mc/MR) panels, each
/// k-major: panel[p*MR + i] = A(i0 + panel_base + i, p0 + p). Rows past the
/// edge are zero-filled so the micro-kernel never branches on the tail.
void pack_a(const float* a, ALayout layout, int64_t lda, int64_t i0,
            int64_t mc, int64_t p0, int64_t kc, float* out) {
  const int64_t panels = (mc + kMR - 1) / kMR;
  for (int64_t pan = 0; pan < panels; ++pan) {
    const int64_t ibase = i0 + pan * kMR;
    const int64_t rows = std::min(kMR, i0 + mc - ibase);
    float* dst = out + pan * kMR * kc;
    if (layout == ALayout::kMK) {
      // Walk each source row sequentially; the strided writes stay within
      // the (cache-resident) panel.
      for (int64_t i = 0; i < rows; ++i) {
        const float* src = a + (ibase + i) * lda + p0;
        for (int64_t p = 0; p < kc; ++p) dst[p * kMR + i] = src[p];
      }
      for (int64_t i = rows; i < kMR; ++i)
        for (int64_t p = 0; p < kc; ++p) dst[p * kMR + i] = 0.0f;
    } else {  // A stored [K, M]: source rows are contiguous in i.
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * lda + ibase;
        float* col = dst + p * kMR;
        for (int64_t i = 0; i < rows; ++i) col[i] = src[i];
        for (int64_t i = rows; i < kMR; ++i) col[i] = 0.0f;
      }
    }
  }
}

/// Packs the [kc × nc] block of B at (p0, j0) into ceil(nc/NR) panels, each
/// k-major: panel[p*NR + j] = B(p0 + p, j0 + panel_base + j), zero-padded.
void pack_b(const float* b, BLayout layout, int64_t ldb, int64_t p0,
            int64_t kc, int64_t j0, int64_t nc, float* out) {
  const int64_t panels = (nc + kNR - 1) / kNR;
  for (int64_t pan = 0; pan < panels; ++pan) {
    const int64_t jbase = j0 + pan * kNR;
    const int64_t cols = std::min(kNR, j0 + nc - jbase);
    float* dst = out + pan * kNR * kc;
    if (layout == BLayout::kKN) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * ldb + jbase;
        float* row = dst + p * kNR;
        for (int64_t j = 0; j < cols; ++j) row[j] = src[j];
        for (int64_t j = cols; j < kNR; ++j) row[j] = 0.0f;
      }
    } else {  // B stored [N, K]: walk each N-row sequentially, scatter into
              // the k-major panel (strided writes stay panel-resident).
      for (int64_t j = 0; j < cols; ++j) {
        const float* src = b + (jbase + j) * ldb + p0;
        for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = src[p];
      }
      for (int64_t j = cols; j < kNR; ++j)
        for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0f;
    }
  }
}

/// The shared micro-kernel: C[mr × nr] += Apanel · Bpanel over kc steps.
/// Both panels are contiguous, k-major, and zero-padded to MR/NR, so the
/// accumulator loops have constant trip counts (fully unrolled + vectorized
/// across j); only the final write-back respects the real tile edge.
void micro_kernel(const float* __restrict ap, const float* __restrict bp,
                  int64_t kc, float* __restrict c, int64_t ldc, int64_t mr,
                  int64_t nr) {
#ifdef ITASK_GEMM_VECEXT
  vnr acc[kMR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    vnr bv;
    __builtin_memcpy(&bv, bp + p * kNR, sizeof(bv));
    const float* __restrict av = ap + p * kMR;
    for (int64_t i = 0; i < kMR; ++i) acc[i] += av[i] * bv;
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      vnr cv;
      __builtin_memcpy(&cv, crow, sizeof(cv));
      cv += acc[i];
      __builtin_memcpy(crow, &cv, sizeof(cv));
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
#else
  float acc[kMR][kNR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* __restrict av = ap + p * kMR;
    const float* __restrict bv = bp + p * kNR;
    for (int64_t i = 0; i < kMR; ++i) {
      const float ai = av[i];
      for (int64_t j = 0; j < kNR; ++j) acc[i][j] += ai * bv[j];
    }
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < kNR; ++j) crow[j] += acc[i][j];
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
#endif
}

int64_t roundup(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

/// Scratch floats for one packed A slab (`a_slab_elems`) or one packed B
/// block (`b_block_elems`): the largest the loop nest visits for this shape,
/// so each call takes its panels from one ScratchVec per operand.
int64_t a_slab_elems(int64_t m, int64_t k) {
  return roundup(std::min(m, kMC), kMR) * std::min(k, kKC);
}
int64_t b_block_elems(int64_t k, int64_t n) {
  return std::min(kNC, roundup(n, kNR)) * std::min(k, kKC);
}

/// One MC slab of one (KC, NC) block: packs the slab's A panels into
/// `apack` and runs the micro-kernel grid against an already-packed B block.
void run_mc_slab(const float* a, ALayout alay, int64_t lda, int64_t ic,
                 int64_t m, int64_t pc, int64_t kc, int64_t jc,
                 int64_t npanels, const float* bpack, float* apack, float* c,
                 int64_t n) {
  const int64_t mc = std::min(kMC, m - ic);
  const int64_t mpanels = (mc + kMR - 1) / kMR;
  {
    ITASK_PROFILE_SCOPE(profile::Section::kGemmPack);
    pack_a(a, alay, lda, ic, mc, pc, kc, apack);
  }
  ITASK_PROFILE_SCOPE(profile::Section::kGemmKernel);
  for (int64_t pi = 0; pi < mpanels; ++pi) {
    const int64_t i = ic + pi * kMR;
    const int64_t mr = std::min(kMR, m - i);
    for (int64_t pj = 0; pj < npanels; ++pj) {
      const int64_t j = jc + pj * kNR;
      micro_kernel(apack + pi * kMR * kc, bpack + pj * kNR * kc, kc,
                   c + i * n + j, n, mr, std::min(kNR, n - j));
    }
  }
}

/// Five-loop blocked driver; the public variants differ only in the layout
/// tags handed to the packers. The packers write every panel element,
/// padding included, so the scratch needs no zero fill.
void gemm_driver(const float* a, ALayout alay, const float* b, BLayout blay,
                 float* c, int64_t m, int64_t k, int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const int64_t lda = alay == ALayout::kMK ? k : m;
  const int64_t ldb = blay == BLayout::kKN ? n : k;
  const ArenaMark mark;  // the panels die with the call
  ScratchVec<float> apack(a_slab_elems(m, k), /*zero_fill=*/false);
  ScratchVec<float> bpack(b_block_elems(k, n), /*zero_fill=*/false);
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t npanels = (nc + kNR - 1) / kNR;
      {
        // Profiling hooks sit at cache-block granularity: one relaxed
        // atomic load per block when disabled, never inside the micro-
        // kernel loop.
        ITASK_PROFILE_SCOPE(profile::Section::kGemmPack);
        pack_b(b, blay, ldb, pc, kc, jc, nc, bpack.data());
      }
      for (int64_t ic = 0; ic < m; ic += kMC) {
        run_mc_slab(a, alay, lda, ic, m, pc, kc, jc, npanels, bpack.data(),
                    apack.data(), c, n);
      }
    }
  }
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  gemm_driver(a, ALayout::kMK, b, BLayout::kKN, c, m, k, n);
}

void gemm_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  gemm_driver(a, ALayout::kMK, b, BLayout::kNK, c, m, k, n);
}

void gemm_at(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  gemm_driver(a, ALayout::kKM, b, BLayout::kKN, c, m, k, n);
}

PackedB pack_weights_bt(const float* b, int64_t k, int64_t n) {
  PackedB out;
  out.k = k;
  out.n = n;
  if (k <= 0 || n <= 0) return out;
  size_t total = 0;
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      total += static_cast<size_t>(((nc + kNR - 1) / kNR) * kNR * kc);
    }
  }
  out.data.resize(total);
  float* dst = out.data.data();
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t npanels = (nc + kNR - 1) / kNR;
      pack_b(b, BLayout::kNK, k, pc, kc, jc, nc, dst);
      dst += npanels * kNR * kc;
    }
  }
  return out;
}

void gemm_bt_prepacked(const float* a, const PackedB& b, float* c, int64_t m) {
  const int64_t k = b.k;
  const int64_t n = b.n;
  if (m <= 0 || n <= 0 || k <= 0) return;
  ITASK_PROFILE_COUNT(profile::Counter::kGemmPrepackedCalls, 1);
  ITASK_PROFILE_COUNT(profile::Counter::kGemmPackBytesAvoided, b.bytes());
  const ArenaMark mark;
  ScratchVec<float> apack(a_slab_elems(m, k), /*zero_fill=*/false);
  const float* block = b.data.data();
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t npanels = (nc + kNR - 1) / kNR;
      for (int64_t ic = 0; ic < m; ic += kMC) {
        run_mc_slab(a, ALayout::kMK, k, ic, m, pc, kc, jc, npanels, block,
                    apack.data(), c, n);
      }
      block += npanels * kNR * kc;
    }
  }
}

namespace reference {

// The pre-kernel-layer loops, kept verbatim (including the data-dependent
// av == 0 skip) as the measured "before" and the parity oracle.

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void gemm_at(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace reference

}  // namespace itask::gemm
