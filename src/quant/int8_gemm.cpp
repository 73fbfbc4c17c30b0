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
// int16 and laid out in adjacent k-PAIRS per lane, which is exactly the
// operand shape of the x86 int16 pair-dot instructions (vpmaddwd /
// AVX512-VNNI vpdpwssd): one instruction per accumulator row retires two k
// steps. int8·int8 products (≤ 127²) summed over any practical k fit int32
// with no overflow. Both operands arrive packed whole before the loop nest
// runs: weights once, when quantized; activations once per call, by one of
// the two A producers below.
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 16;
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 128;

inline int64_t pair_steps(int64_t kc) { return (kc + 1) / 2; }

constexpr auto widen = [](int8_t v) -> int16_t { return v; };

/// Packs rows [i0, i0+mc) × k [p0, p0+kc) of a row-major matrix into
/// `tile`-row panels of int16 k-pairs, zero-padded in both the row tail and
/// the odd-k slot: panel[p2·tile·2 + i·2 + s] = code(src(i, 2p2+s)).
template <typename T, typename Code>
void pack_rows(const T* src, int64_t ld, int64_t i0, int64_t mc, int64_t p0,
               int64_t kc, int64_t tile, int16_t* out, Code code) {
  const int64_t panels = (mc + tile - 1) / tile;
  const int64_t steps = pair_steps(kc);
  for (int64_t pan = 0; pan < panels; ++pan) {
    const int64_t ibase = i0 + pan * tile;
    const int64_t rows = std::min(tile, i0 + mc - ibase);
    int16_t* dst = out + pan * tile * 2 * steps;
    // Walk each source row sequentially; strided writes stay panel-resident.
    for (int64_t i = 0; i < rows; ++i) {
      const T* row = src + (ibase + i) * ld + p0;
      for (int64_t p = 0; p < kc; ++p)
        dst[(p / 2) * tile * 2 + i * 2 + (p & 1)] = code(row[p]);
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
/// the k-pair layout pack_rows defines.
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

/// The whole [m, k] activation operand as panels: for each KC slab, every
/// kMR-row panel of that slab's k-pairs, in row order — the order the loop
/// nest reads them. `fill(panel, i0, rows, p0, kc)` writes one panel.
template <typename Fill>
void produce_a_panels(int64_t m, int64_t k, int16_t* out, Fill fill) {
  const int64_t mpanels = (m + kMR - 1) / kMR;
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const int64_t plen = 2 * pair_steps(kc);
    for (int64_t pi = 0; pi < mpanels; ++pi)
      fill(out + pi * kMR * plen, pi * kMR, std::min(kMR, m - pi * kMR), pc,
           kc);
    out += mpanels * kMR * plen;
  }
}

#if defined(__AVX2__)
/// Quantizes rows × cols (≤ 8 × 8) of `x` into the ⌈cols/2⌉ k-pair steps of
/// one panel they cover. Missing rows and columns become 0, the padding
/// pack_rows writes.
void quantize_block(const float* x, int64_t ld, int64_t rows, int64_t cols,
                    const QuantizeLanes& lanes, int16_t* dst) {
  static_assert(kMR == 8, "one 256-bit store holds a k-pair of 8 rows");
  if (rows < kMR || cols < 8) {
    // Panel edge: zero the steps, then scatter each row's int16 pairs.
    const int64_t steps = pair_steps(cols);
    std::memset(dst, 0, static_cast<size_t>(steps * kMR * 2) * sizeof(int16_t));
    const __m256i colmask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(cols)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    for (int64_t i = 0; i < rows; ++i) {
      const __m256i q = _mm256_and_si256(
          lanes(_mm256_maskload_ps(x + i * ld, colmask)), colmask);
      __m128i pairs = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1));
      for (int64_t p2 = 0; p2 < steps; ++p2) {
        _mm_storeu_si32(dst + p2 * kMR * 2 + i * 2, pairs);
        pairs = _mm_srli_si128(pairs, 4);
      }
    }
    return;
  }
  // A full 8 × 8 block: packs(q_i, q_i+1) holds, as 32-bit words, rows
  // i/i+1 × pairs 0,1 in the low half and pairs 2,3 in the high half; the
  // shuffles and unpacks gather four rows per pair, the permutes join rows
  // 0-3 with rows 4-7, so each store writes one k-pair of all eight rows.
  __m256i q[kMR];
  for (int64_t i = 0; i < kMR; ++i) q[i] = lanes(_mm256_loadu_ps(x + i * ld));
  __m256i r[4];
  for (int64_t i = 0; i < 4; ++i)
    r[i] = _mm256_shuffle_epi32(_mm256_packs_epi32(q[2 * i], q[2 * i + 1]),
                                _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i lo03 = _mm256_unpacklo_epi64(r[0], r[1]);
  const __m256i hi03 = _mm256_unpackhi_epi64(r[0], r[1]);
  const __m256i lo47 = _mm256_unpacklo_epi64(r[2], r[3]);
  const __m256i hi47 = _mm256_unpackhi_epi64(r[2], r[3]);
  auto* out = reinterpret_cast<__m256i*>(dst);
  _mm256_storeu_si256(out, _mm256_permute2x128_si256(lo03, lo47, 0x20));
  _mm256_storeu_si256(out + 1, _mm256_permute2x128_si256(hi03, hi47, 0x20));
  _mm256_storeu_si256(out + 2, _mm256_permute2x128_si256(lo03, lo47, 0x31));
  _mm256_storeu_si256(out + 3, _mm256_permute2x128_si256(hi03, hi47, 0x31));
}
#endif

/// The loop nest over packed operands: acc = A·Wᵀ − zp·Σw, the correction
/// folded into the first k slab's writeback.
void gemm_panels(const int16_t* apanels, int64_t m, int32_t a_zero_point,
                 const PackedWeightInt8& w, std::span<const int32_t> w_row_sums,
                 int32_t* acc) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill(acc, acc + m * n, 0);
    return;
  }
  ScratchVec<int32_t> corr(n, /*zero_fill=*/false);
  for (int64_t j = 0; j < n; ++j) corr[j] = a_zero_point * w_row_sums[j];
  ITASK_PROFILE_SCOPE(profile::Section::kInt8Kernel);
  const int64_t mpanels = (m + kMR - 1) / kMR;
  const int16_t* block = w.data.data();
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const int64_t plen = 2 * pair_steps(kc);
    const bool first = pc == 0;
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t npanels = (std::min(kNC, n - jc) + kNR - 1) / kNR;
      for (int64_t pi = 0; pi < mpanels; ++pi) {
        const int64_t i = pi * kMR;
        for (int64_t pj = 0; pj < npanels; ++pj) {
          const int64_t j = jc + pj * kNR;
          micro_kernel_i8(apanels + pi * kMR * plen, block + pj * kNR * plen,
                          kc, acc + i * n + j, n, corr.data() + j,
                          std::min(kMR, m - i), std::min(kNR, n - j), first);
        }
      }
      block += npanels * kNR * plen;
    }
    apanels += mpanels * kMR * plen;
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
      pack_rows(w.data(), k, jc, nc, pc, kc, kNR, dst, widen);
      dst += npanels * kNR * plen;
    }
  }
  return out;
}

int64_t activation_panel_size(int64_t m, int64_t k) {
  if (m <= 0 || k <= 0) return 0;
  int64_t steps = 0;
  for (int64_t pc = 0; pc < k; pc += kKC)
    steps += pair_steps(std::min(kKC, k - pc));
  return (m + kMR - 1) / kMR * kMR * 2 * steps;
}

void pack_activations_int8(std::span<const int8_t> a, int64_t m, int64_t k,
                           std::span<int16_t> panels) {
  ITASK_CHECK(static_cast<int64_t>(a.size()) == m * k, "int8_gemm: a size");
  ITASK_CHECK(static_cast<int64_t>(panels.size()) ==
                  activation_panel_size(m, k),
              "pack_activations_int8: panel size");
  produce_a_panels(
      m, k, panels.data(),
      [&](int16_t* dst, int64_t i0, int64_t rows, int64_t p0, int64_t kc) {
        pack_rows(a.data(), k, i0, rows, p0, kc, kMR, dst, widen);
      });
}

void quantize_activations_packed(std::span<const float> x,
                                 const QuantParams& p, int64_t m, int64_t k,
                                 std::span<int16_t> panels) {
  ITASK_CHECK(static_cast<int64_t>(x.size()) == m * k,
              "quantize_activations_packed: x size");
  ITASK_CHECK(static_cast<int64_t>(panels.size()) ==
                  activation_panel_size(m, k),
              "quantize_activations_packed: panel size");
#if defined(__AVX2__)
  const QuantizeLanes lanes(p);
#endif
  produce_a_panels(
      m, k, panels.data(),
      [&](int16_t* dst, int64_t i0, int64_t rows, int64_t p0, int64_t kc) {
#if defined(__AVX2__)
        for (int64_t c = 0; c < kc; c += 8)
          quantize_block(x.data() + i0 * k + p0 + c, k, rows,
                         std::min<int64_t>(8, kc - c), lanes, dst + c * kMR);
#else
        pack_rows(x.data(), k, i0, rows, p0, kc, kMR, dst, [&](float v) {
          return static_cast<int16_t>(p.quantize(v));
        });
#endif
      });
}

void int8_gemm_bt_prepacked(std::span<const int8_t> a, int32_t a_zero_point,
                            const PackedWeightInt8& w,
                            std::span<const int32_t> w_row_sums,
                            std::span<int32_t> acc, int64_t m) {
  ITASK_CHECK(static_cast<int64_t>(acc.size()) == m * w.n,
              "int8_gemm: acc size");
  ITASK_CHECK(static_cast<int64_t>(w_row_sums.size()) == w.n,
              "int8_gemm: row_sums size");
  ScratchVec<int16_t> apanels(activation_panel_size(m, w.k),
                              /*zero_fill=*/false);
  {
    ITASK_PROFILE_SCOPE(profile::Section::kInt8Pack);
    pack_activations_int8(a, m, w.k, {apanels.data(), apanels.end()});
  }
  gemm_panels(apanels.data(), m, a_zero_point, w, w_row_sums, acc.data());
}

QuantizedWeight quantize_weight_packed(const Tensor& weight,
                                       WeightGranularity granularity,
                                       int bits) {
  QuantizedWeight qw = quantize_weight(weight, granularity, bits);
  qw.packed = std::make_shared<const PackedWeightInt8>(
      pack_weights_int8(qw.data, qw.out, qw.in));
  return qw;
}

QuantizedWeight stack_weights_packed(std::span<const QuantizedWeight> parts) {
  ITASK_CHECK(!parts.empty(), "stack_weights_packed: no parts");
  QuantizedWeight qw;
  qw.in = parts.front().in;
  for (const QuantizedWeight& part : parts) {
    ITASK_CHECK(part.in == qw.in, "stack_weights_packed: input extents differ");
    qw.data.insert(qw.data.end(), part.data.begin(), part.data.end());
    qw.row_sums.insert(qw.row_sums.end(), part.row_sums.begin(),
                       part.row_sums.end());
    for (int64_t r = 0; r < part.out; ++r)
      qw.scales.push_back(part.scale_for_row(r));
    qw.out += part.out;
  }
  qw.packed = std::make_shared<const PackedWeightInt8>(
      pack_weights_int8(qw.data, qw.out, qw.in));
  return qw;
}

void qlinear_forward(const Tensor& x, const QuantParams& act,
                     const QuantizedWeight& weight,
                     std::span<const QLinearOutput> outputs) {
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
  int64_t cols = 0;
  for (const QLinearOutput& o : outputs) {
    Shape shape = x.shape();
    shape.back() = o.cols;
    ITASK_CHECK(o.bias == nullptr || o.bias->numel() == o.cols,
                "qlinear_forward: bias length mismatch");
    ITASK_CHECK(o.epilogue.residual != nullptr
                    ? o.epilogue.residual->shape() == shape
                    : o.out != nullptr,
                "qlinear_forward: output needs a tensor or a matching "
                "residual");
    // The dequant pass writes every element of a non-residual output.
    if (o.epilogue.residual == nullptr)
      *o.out = Tensor::uninitialized(std::move(shape));
    cols += o.cols;
  }
  ITASK_CHECK(cols == out, "qlinear_forward: outputs must cover the weight");
  // Scratch comes from the worker's arena under an ArenaScope (the serving
  // hot path) and from the heap otherwise — same values either way — and is
  // released when the call returns; the outputs above outlive it. The FP32
  // input is quantized straight into the kernel's A panels, in one pass.
  const ArenaMark mark;
  ScratchVec<int16_t> apanels(activation_panel_size(rows, in),
                              /*zero_fill=*/false);
  {
    ITASK_PROFILE_SCOPE(profile::Section::kInt8Quantize);
    quantize_activations_packed(x.data(), act, rows, in,
                                {apanels.data(), apanels.end()});
  }
  // gemm_panels writes every accumulator.
  ScratchVec<int32_t> acc(rows * out, /*zero_fill=*/false);
  gemm_panels(apanels.data(), rows, act.zero_point, *weight.packed,
              weight.row_sums, acc.data());
  // Dequant scale per output column (activation scale × per-row weight
  // scale), hoisted out of the element loop.
  ScratchVec<float> col_scale(out, /*zero_fill=*/false);
  for (int64_t j = 0; j < out; ++j)
    col_scale[j] = act.scale * weight.scale_for_row(j);
  ITASK_PROFILE_SCOPE(profile::Section::kInt8Dequant);
  int64_t c0 = 0;
  for (const QLinearOutput& o : outputs) {
    const int64_t n = o.cols;
    const float* scale = col_scale.data() + c0;
    const float* bias = o.bias != nullptr ? o.bias->data().data() : nullptr;
    Tensor* residual = o.epilogue.residual;
    float* dst = residual != nullptr ? residual->data().data()
                                     : o.out->data().data();
    for (int64_t r = 0; r < rows; ++r) {
      const int32_t* arow = acc.data() + r * out + c0;
      float* yrow = dst + r * n;
      if (residual != nullptr && bias != nullptr) {
        for (int64_t j = 0; j < n; ++j)
          yrow[j] += static_cast<float>(arow[j]) * scale[j] + bias[j];
      } else if (residual != nullptr) {
        for (int64_t j = 0; j < n; ++j)
          yrow[j] += static_cast<float>(arow[j]) * scale[j];
      } else if (bias != nullptr) {
        for (int64_t j = 0; j < n; ++j)
          yrow[j] = static_cast<float>(arow[j]) * scale[j] + bias[j];
      } else {
        for (int64_t j = 0; j < n; ++j)
          yrow[j] = static_cast<float>(arow[j]) * scale[j];
      }
      if (o.epilogue.gelu && residual == nullptr) ops::gelu_row(yrow, n);
    }
    c0 += n;
  }
}

Tensor qlinear_forward(const Tensor& x, const QuantParams& act,
                       const QuantizedWeight& weight, const Tensor* bias,
                       const ops::Epilogue& ep) {
  Tensor y;
  const QLinearOutput output{weight.out, bias, ep, &y};
  qlinear_forward(x, act, weight, {&output, 1});
  return y;
}

}  // namespace itask::quant
