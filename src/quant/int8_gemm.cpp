#include "quant/int8_gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/arena.h"
#include "tensor/profile.h"

#if defined(__AVX512BW__)
#include <immintrin.h>
#endif

namespace itask::quant {

void int8_gemm_bt(std::span<const int8_t> a, int32_t a_zero_point,
                  std::span<const int8_t> w, std::span<int32_t> acc,
                  int64_t m, int64_t k, int64_t n) {
  ITASK_CHECK(static_cast<int64_t>(a.size()) == m * k, "int8_gemm: a size");
  ITASK_CHECK(static_cast<int64_t>(w.size()) == n * k, "int8_gemm: w size");
  ITASK_CHECK(static_cast<int64_t>(acc.size()) == m * n, "int8_gemm: acc size");
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* arow = a.data() + i * k;
    int32_t* crow = acc.data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* wrow = w.data() + j * k;
      int32_t s = 0;
      int32_t asum = 0;
      for (int64_t p = 0; p < k; ++p) {
        s += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(wrow[p]);
        asum += static_cast<int32_t>(wrow[p]);
      }
      // (a - zp)·w = a·w - zp·sum(w)
      crow[j] = s - a_zero_point * asum;
    }
  }
}

namespace {

// Same blocking scheme as the fp32 kernel layer (tensor/gemm.cpp): MR×NR
// int32 register accumulators over KC-slab panels. Operands are widened to
// int16 at pack time and laid out in adjacent k-PAIRS per lane, which is
// exactly the operand shape of the x86 int16 pair-dot instructions
// (vpmaddwd / AVX512-VNNI vpdpwssd): one instruction per accumulator row
// retires two k steps. int8·int8 products (≤ 127²) summed over any
// practical k fit int32 with no overflow.
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 16;
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 128;
constexpr int64_t kNC = 128;

// Bounded like the fp32 workspaces (tensor/gemm.cpp): exact reservation, no
// geometric overshoot, capacity ≤ one KC×MC slab of activation panels,
// storage released on thread exit by the thread_local destructor. Weights
// never need one: they are packed once, when quantized.
thread_local std::vector<int16_t> tl_apack;

int16_t* pack_workspace_i16(std::vector<int16_t>& ws, int64_t elems) {
  const auto n = static_cast<size_t>(elems);
  if (ws.capacity() < n) {
    ws.clear();
    ws.reserve(n);
  }
  ws.resize(n);
  return ws.data();
}

inline int64_t pair_steps(int64_t kc) { return (kc + 1) / 2; }

/// Packs rows [i0, i0+mc) × k [p0, p0+kc) of the row-major [m, k] activation
/// matrix into `tile`-row panels of int16 k-pairs, zero-padded in both the
/// row tail and the odd-k slot: panel[p2·tile·2 + i·2 + s] = src(i, 2p2+s).
void pack_rows(const int8_t* src, int64_t ld, int64_t i0, int64_t mc,
               int64_t p0, int64_t kc, int64_t tile, int16_t* out) {
  const int64_t panels = (mc + tile - 1) / tile;
  const int64_t steps = pair_steps(kc);
  for (int64_t pan = 0; pan < panels; ++pan) {
    const int64_t ibase = i0 + pan * tile;
    const int64_t rows = std::min(tile, i0 + mc - ibase);
    int16_t* dst = out + pan * tile * 2 * steps;
    // Walk each source row sequentially; strided writes stay panel-resident.
    for (int64_t i = 0; i < rows; ++i) {
      const int8_t* row = src + (ibase + i) * ld + p0;
      for (int64_t p = 0; p < kc; ++p)
        dst[(p / 2) * tile * 2 + i * 2 + (p & 1)] = row[p];
      if (kc & 1) dst[(kc / 2) * tile * 2 + i * 2 + 1] = 0;
    }
    for (int64_t i = rows; i < tile; ++i)
      for (int64_t p2 = 0; p2 < steps; ++p2) {
        dst[p2 * tile * 2 + i * 2] = 0;
        dst[p2 * tile * 2 + i * 2 + 1] = 0;
      }
  }
}

/// acc_tile[mr × nr] (+)= Apanel · Wpanel over kc steps; `first` selects
/// overwrite-with-correction vs accumulate for later k slabs. Panels are in
/// the k-pair layout produced by pack_rows.
void micro_kernel_i8(const int16_t* __restrict ap, const int16_t* __restrict wp,
                     int64_t kc, int32_t* __restrict c, int64_t ldc,
                     const int32_t* __restrict corr, int64_t mr, int64_t nr,
                     bool first) {
  const int64_t steps = pair_steps(kc);
#if defined(__AVX512BW__)
  // One 512-bit W load covers NR lanes × 2 k values; each accumulator row
  // costs one broadcast + one pair-dot instruction per 2 k steps.
  static_assert(kNR == 16, "AVX-512 path assumes 16 int32 lanes");
  __m512i acc[kMR];
  for (int64_t i = 0; i < kMR; ++i) acc[i] = _mm512_setzero_si512();
  for (int64_t p2 = 0; p2 < steps; ++p2) {
    const __m512i wv =
        _mm512_loadu_si512(static_cast<const void*>(wp + p2 * kNR * 2));
    const int16_t* __restrict av = ap + p2 * kMR * 2;
    for (int64_t i = 0; i < kMR; ++i) {
      int32_t pair;
      std::memcpy(&pair, av + i * 2, sizeof(pair));
      const __m512i an = _mm512_set1_epi32(pair);
#if defined(__AVX512VNNI__)
      acc[i] = _mm512_dpwssd_epi32(acc[i], an, wv);
#else
      acc[i] = _mm512_add_epi32(acc[i], _mm512_madd_epi16(an, wv));
#endif
    }
  }
  if (mr == kMR && nr == kNR) {
    const __m512i corrv =
        _mm512_loadu_si512(static_cast<const void*>(corr));
    for (int64_t i = 0; i < kMR; ++i) {
      int32_t* crow = c + i * ldc;
      __m512i cv;
      if (first) {
        cv = _mm512_sub_epi32(acc[i], corrv);
      } else {
        cv = _mm512_add_epi32(
            _mm512_loadu_si512(static_cast<const void*>(crow)), acc[i]);
      }
      _mm512_storeu_si512(static_cast<void*>(crow), cv);
    }
    return;
  }
  alignas(64) int32_t tile[kMR][kNR];
  for (int64_t i = 0; i < kMR; ++i)
    _mm512_store_si512(static_cast<void*>(tile[i]), acc[i]);
  for (int64_t i = 0; i < mr; ++i) {
    int32_t* crow = c + i * ldc;
    if (first) {
      for (int64_t j = 0; j < nr; ++j) crow[j] = tile[i][j] - corr[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) crow[j] += tile[i][j];
    }
  }
#else
  int32_t acc[kMR][kNR] = {};
  for (int64_t p2 = 0; p2 < steps; ++p2) {
    const int16_t* __restrict av = ap + p2 * kMR * 2;
    const int16_t* __restrict wv = wp + p2 * kNR * 2;
    for (int64_t i = 0; i < kMR; ++i) {
      const int32_t a0 = av[i * 2];
      const int32_t a1 = av[i * 2 + 1];
      for (int64_t j = 0; j < kNR; ++j)
        acc[i][j] += a0 * static_cast<int32_t>(wv[j * 2]) +
                     a1 * static_cast<int32_t>(wv[j * 2 + 1]);
    }
  }
  if (first) {
    for (int64_t i = 0; i < mr; ++i) {
      int32_t* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] = acc[i][j] - corr[j];
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      int32_t* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
#endif
}

/// One MC slab of one (KC, NC) block: packs the slab's A panels into the
/// calling thread's workspace and runs the int8 micro-kernel grid against an
/// already-packed W block.
void run_mc_slab_i8(const int8_t* a, int64_t k, int64_t ic, int64_t m,
                    int64_t pc, int64_t kc, int64_t jc, int64_t npanels,
                    const int16_t* wpack, int32_t* acc, int64_t n,
                    const int32_t* corr, bool first) {
  const int64_t plen = 2 * pair_steps(kc);
  const int64_t mc = std::min(kMC, m - ic);
  const int64_t mpanels = (mc + kMR - 1) / kMR;
  int16_t* apack = pack_workspace_i16(tl_apack, mpanels * kMR * plen);
  {
    ITASK_PROFILE_SCOPE(profile::Section::kInt8Pack);
    pack_rows(a, k, ic, mc, pc, kc, kMR, apack);
  }
  ITASK_PROFILE_SCOPE(profile::Section::kInt8Kernel);
  for (int64_t pi = 0; pi < mpanels; ++pi) {
    const int64_t i = ic + pi * kMR;
    const int64_t mr = std::min(kMR, m - i);
    for (int64_t pj = 0; pj < npanels; ++pj) {
      const int64_t j = jc + pj * kNR;
      micro_kernel_i8(apack + pi * kMR * plen, wpack + pj * kNR * plen, kc,
                      acc + i * n + j, n, corr + j, mr, std::min(kNR, n - j),
                      first);
    }
  }
}

}  // namespace

PackedWeightInt8 pack_weights_int8(std::span<const int8_t> w, int64_t n,
                                   int64_t k) {
  ITASK_CHECK(static_cast<int64_t>(w.size()) == n * k,
              "pack_weights_int8: w size");
  PackedWeightInt8 out;
  out.k = k;
  out.n = n;
  if (k <= 0 || n <= 0) return out;
  size_t total = 0;
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t plen = 2 * pair_steps(std::min(kKC, k - pc));
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      total += static_cast<size_t>(((nc + kNR - 1) / kNR) * kNR * plen);
    }
  }
  out.data.resize(total);
  int16_t* dst = out.data.data();
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const int64_t plen = 2 * pair_steps(kc);
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t npanels = (nc + kNR - 1) / kNR;
      pack_rows(w.data(), k, jc, nc, pc, kc, kNR, dst);
      dst += npanels * kNR * plen;
    }
  }
  return out;
}

void int8_gemm_bt_prepacked(std::span<const int8_t> a, int32_t a_zero_point,
                            const PackedWeightInt8& w,
                            std::span<const int32_t> w_row_sums,
                            std::span<int32_t> acc, int64_t m) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  ITASK_CHECK(static_cast<int64_t>(a.size()) == m * k, "int8_gemm: a size");
  ITASK_CHECK(static_cast<int64_t>(acc.size()) == m * n, "int8_gemm: acc size");
  ITASK_CHECK(static_cast<int64_t>(w_row_sums.size()) == n,
              "int8_gemm: row_sums size");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill(acc.begin(), acc.end(), 0);
    return;
  }
  ScratchVec<int32_t> corr(n, /*zero_fill=*/false);
  for (int64_t j = 0; j < n; ++j) corr[j] = a_zero_point * w_row_sums[j];
  const int16_t* block = w.data.data();
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const int64_t plen = 2 * pair_steps(kc);
    const bool first = pc == 0;
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t npanels = (nc + kNR - 1) / kNR;
      for (int64_t ic = 0; ic < m; ic += kMC) {
        run_mc_slab_i8(a.data(), k, ic, m, pc, kc, jc, npanels, block,
                       acc.data(), n, corr.data(), first);
      }
      block += npanels * kNR * plen;
    }
  }
}

QuantizedWeight quantize_weight_packed(const Tensor& weight,
                                       WeightGranularity granularity,
                                       int bits) {
  QuantizedWeight qw = quantize_weight(weight, granularity, bits);
  qw.packed = std::make_shared<const PackedWeightInt8>(
      pack_weights_int8(qw.data, qw.out, qw.in));
  return qw;
}

Tensor qlinear_forward(const Tensor& x, const QuantParams& act,
                       const QuantizedWeight& weight, const Tensor* bias) {
  ITASK_CHECK(x.ndim() >= 1, "qlinear_forward: bad input rank");
  const int64_t in = weight.in;
  ITASK_CHECK(x.dim(x.ndim() - 1) == in, "qlinear_forward: trailing dim");
  const int64_t rows = x.numel() / in;
  const int64_t out = weight.out;
  ITASK_CHECK(weight.packed != nullptr && weight.packed->k == in &&
                  weight.packed->n == out &&
                  static_cast<int64_t>(weight.row_sums.size()) == out,
              "qlinear_forward: weight has no packed panels or row sums "
              "(build it with quantize_weight_packed)");
  // Scratch comes from the worker's arena under an ArenaScope (the serving
  // hot path) and from the heap otherwise — same values either way.
  ScratchVec<int8_t> qx(rows * in, /*zero_fill=*/false);
  {
    ITASK_PROFILE_SCOPE(profile::Section::kInt8Quantize);
    quantize_tensor_into(x, act, std::span<int8_t>(qx.data(), qx.size()));
  }
  ScratchVec<int32_t> acc(rows * out);
  const std::span<const int8_t> qx_span(qx.data(),
                                        static_cast<size_t>(qx.size()));
  const std::span<int32_t> acc_span(acc.data(),
                                    static_cast<size_t>(acc.size()));
  int8_gemm_bt_prepacked(qx_span, act.zero_point, *weight.packed,
                         weight.row_sums, acc_span, rows);
  // Dequant scale per output column (activation scale × per-row weight
  // scale), hoisted out of the element loop.
  ScratchVec<float> col_scale(out, /*zero_fill=*/false);
  for (int64_t j = 0; j < out; ++j)
    col_scale[j] = act.scale * weight.scale_for_row(j);
  Shape out_shape = x.shape();
  out_shape.back() = out;
  Tensor y(std::move(out_shape));
  auto yd = y.data();
  ITASK_PROFILE_SCOPE(profile::Section::kInt8Dequant);
  if (bias != nullptr) {
    auto bd = bias->data();
    for (int64_t r = 0; r < rows; ++r) {
      const int32_t* arow = acc.data() + r * out;
      float* yrow = yd.data() + r * out;
      for (int64_t j = 0; j < out; ++j)
        yrow[j] = static_cast<float>(arow[j]) * col_scale[j] + bd[j];
    }
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      const int32_t* arow = acc.data() + r * out;
      float* yrow = yd.data() + r * out;
      for (int64_t j = 0; j < out; ++j)
        yrow[j] = static_cast<float>(arow[j]) * col_scale[j];
    }
  }
  return y;
}

}  // namespace itask::quant
