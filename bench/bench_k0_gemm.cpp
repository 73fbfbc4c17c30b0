// K0 — GEMM kernel layer: old (naive triple-loop) vs new (blocked, packed)
// vs prepacked (weights packed once, as Framework::publish() does for every
// serving FP32 model) GFLOP/s on the exact shapes the deployable models
// emit — qkv/proj/fc1/fc2/patch-embed/head weight GEMMs and the attention
// activation bmms at the student (d40) and teacher (d64) widths, batch 1–32,
// fp32 and INT8. The prepacked column exists only for the weight GEMMs
// (fp32_bt / int8_bt, one weight matrix per call) — activation bmms have no
// publish-time weight to prepack. INT8 rows have no pack-per-call column:
// an INT8 weight is packed once, when it is quantized, and the prepacked
// kernel is its only blocked path.
//
// The INT8 activation quantize gets its own rows at the served sizes (400,
// 1600 and 13 824 elements), in ns per element: scalar QuantParams::quantize
// vs the vector kernel vs the fused producer that writes the GEMM's panels.
//
// GELU gets rows at its served sizes (360, 800 and 6 400 elements), in ns
// per element: ops::gelu vs the libm tanhf form it replaced, kept here as
// the "before" reference.
//
// nn::attention_core gets rows at d40 b1/b8 and d64 b8, in µs per call:
// the composed path it replaced (Q|K|V slices, split_heads, bmm_bt,
// mul_scalar, softmax_lastdim, bmm, merge_heads), kept here as the "before"
// reference and parity-checked bit for bit, vs the fused routine.
//
// Every case is parity-checked (packed vs naive, prepacked bit-exact vs
// packed for fp32 and vs naive for int8) before it is timed; a mismatch
// fails the run (nonzero exit), which is what the ctest smoke entry
// exercises. Results are
// also written to BENCH_kernels.json so later PRs have a kernel-perf
// baseline to regress against.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "nn/attention.h"
#include "quant/int8_gemm.h"
#include "tensor/format.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/profile.h"
#include "tensor/rng.h"

namespace itask {
namespace {

enum class Kind { kFp32Nn, kFp32Bt, kFp32At, kInt8Bt };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kFp32Nn: return "fp32_nn";
    case Kind::kFp32Bt: return "fp32_bt";
    case Kind::kFp32At: return "fp32_at";
    case Kind::kInt8Bt: return "int8_bt";
  }
  return "?";
}

struct Case {
  std::string name;
  Kind kind;
  int64_t batch;  // independent GEMMs per call (bmm batch; 1 for 2-D)
  int64_t m, k, n;
  bool d40_deployable;  // counts toward the headline d40 geomean
};

struct Result {
  double naive_gflops = 0.0;
  /// Pack-per-call blocked kernel; 0 for int8 (no such path).
  double packed_gflops = 0.0;
  /// Weights packed once outside the timed region (the serving path after
  /// publish()); 0 when the case has no prepackable weight operand.
  double prepacked_gflops = 0.0;
  double speedup = 0.0;  // blocked vs naive (prepacked for int8)
  double prepacked_speedup = 0.0;  // prepacked vs pack-per-call (fp32 only)
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times fn by doubling the iteration count until the run exceeds
/// `min_seconds`, returning seconds per call.
template <typename Fn>
double seconds_per_call(double min_seconds, Fn&& fn) {
  fn();  // warm-up (and workspace growth)
  for (int64_t iters = 1;; iters *= 2) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double s = seconds_since(t0);
    if (s >= min_seconds || iters > (int64_t{1} << 30))
      return s / static_cast<double>(iters);
  }
}

/// Achieved GFLOP/s of fn (2·batch·m·k·n flops per call).
template <typename Fn>
double time_gflops(const Case& c, double min_seconds, Fn&& fn) {
  const double flops_per_call =
      2.0 * static_cast<double>(c.batch) * static_cast<double>(c.m) *
      static_cast<double>(c.k) * static_cast<double>(c.n);
  return flops_per_call / seconds_per_call(min_seconds, fn) / 1e9;
}

/// The INT8 activation quantize at one served [rows, k] shape, in ns per
/// element: the scalar QuantParams::quantize loop, the vector kernel behind
/// quantize_tensor_into, and the GEMM's fused producer, which quantizes
/// straight into the A panels qlinear_forward runs on.
struct QuantizeRow {
  int64_t rows = 0, k = 0;
  double scalar_ns = 0.0, kernel_ns = 0.0, panels_ns = 0.0;
};

QuantizeRow run_quantize_row(int64_t rows, int64_t k, double min_seconds,
                             Rng& rng) {
  QuantizeRow r{rows, k};
  const Tensor x = rng.randn({rows, k}, 0.0f, 2.0f);
  const quant::QuantParams p = quant::QuantParams::asymmetric(-3.0f, 5.0f);
  std::vector<int8_t> scalar(static_cast<size_t>(rows * k));
  std::vector<int8_t> kernel(scalar.size());
  std::vector<int16_t> panels(
      static_cast<size_t>(quant::activation_panel_size(rows, k)));
  const auto xd = x.data();
  const auto scalar_pass = [&] {
    for (size_t i = 0; i < scalar.size(); ++i) scalar[i] = p.quantize(xd[i]);
  };
  scalar_pass();
  quant::quantize_tensor_into(x, p, kernel);
  if (kernel != scalar) {
    std::fprintf(stderr, "PARITY FAILURE: quantize %lldx%lld\n",
                 static_cast<long long>(rows), static_cast<long long>(k));
    std::exit(1);
  }
  const double elems = static_cast<double>(rows * k);
  r.scalar_ns = seconds_per_call(min_seconds, scalar_pass) * 1e9 / elems;
  r.kernel_ns = seconds_per_call(min_seconds, [&] {
                  quant::quantize_tensor_into(x, p, kernel);
                }) * 1e9 / elems;
  r.panels_ns = seconds_per_call(min_seconds, [&] {
                  quant::quantize_activations_packed(xd, p, rows, k, panels);
                }) * 1e9 / elems;
  return r;
}

/// GELU at one served [rows, cols] shape, in ns per element: ops::gelu and
/// the libm form it replaced, 0.5·x·(1 + tanhf(u)). Both copy the input
/// into a fresh tensor, as the op does.
struct GeluRow {
  int64_t rows = 0, cols = 0;
  double libm_ns = 0.0, ops_ns = 0.0;
};

Tensor gelu_libm(const Tensor& a) {
  Tensor out = a;
  for (float& v : out.data()) {
    const float inner = 0.7978845608028654f * (v + 0.044715f * v * v * v);
    v = 0.5f * v * (1.0f + std::tanh(inner));
  }
  return out;
}

GeluRow run_gelu_row(int64_t rows, int64_t cols, double min_seconds,
                     Rng& rng) {
  GeluRow r{rows, cols};
  const Tensor x = rng.randn({rows, cols}, 0.0f, 1.5f);
  const Tensor before = gelu_libm(x);
  const Tensor after = ops::gelu(x);
  // Each form is within 2.5e-7·(1 + |ref|) of a long double reference
  // (test_ops), so the two differ by at most twice that.
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(after[i] - before[i]) > 5e-7f * (1.0f + std::abs(before[i]))) {
      std::fprintf(stderr, "PARITY FAILURE: gelu %lldx%lld at %lld\n",
                   static_cast<long long>(rows), static_cast<long long>(cols),
                   static_cast<long long>(i));
      std::exit(1);
    }
  }
  const double elems = static_cast<double>(rows * cols);
  r.libm_ns = seconds_per_call(min_seconds, [&] { (void)gelu_libm(x); }) *
              1e9 / elems;
  r.ops_ns = seconds_per_call(min_seconds, [&] { (void)ops::gelu(x); }) *
             1e9 / elems;
  return r;
}

/// attention_core at one served [B, T, 3D] shape, in µs per call: the
/// composed path and the fused routine.
struct AttentionRow {
  std::string name;
  int64_t batch = 0, tokens = 0, dim = 0, heads = 0;
  double composed_us = 0.0, fused_us = 0.0;
};

nn::AttentionCore attention_composed(const Tensor& qkv, int64_t heads) {
  const int64_t b = qkv.dim(0), t = qkv.dim(1), d = qkv.dim(2) / 3;
  Tensor q({b, t, d}), k({b, t, d}), v({b, t, d});
  for (int64_t r = 0; r < b * t; ++r) {
    const float* row = qkv.data().data() + r * 3 * d;
    std::memcpy(q.data().data() + r * d, row, d * sizeof(float));
    std::memcpy(k.data().data() + r * d, row + d, d * sizeof(float));
    std::memcpy(v.data().data() + r * d, row + 2 * d, d * sizeof(float));
  }
  q = nn::split_heads(q, heads);
  k = nn::split_heads(k, heads);
  v = nn::split_heads(v, heads);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d / heads));
  nn::AttentionCore core;
  core.attn = ops::softmax_lastdim(ops::mul_scalar(ops::bmm_bt(q, k), scale));
  core.ctx = nn::merge_heads(ops::bmm(core.attn, v), heads);
  return core;
}

AttentionRow run_attention_row(const std::string& name, int64_t batch,
                               int64_t tokens, int64_t dim, int64_t heads,
                               double min_seconds, Rng& rng) {
  AttentionRow r{name, batch, tokens, dim, heads};
  const Tensor qkv = rng.randn({batch, tokens, 3 * dim});
  const nn::AttentionCore before = attention_composed(qkv, heads);
  const nn::AttentionCore after = nn::attention_core(qkv, heads);
  const auto same = [](const Tensor& x, const Tensor& y) {
    return x.shape() == y.shape() &&
           std::memcmp(x.data().data(), y.data().data(),
                       x.numel() * sizeof(float)) == 0;
  };
  if (!same(before.attn, after.attn) || !same(before.ctx, after.ctx)) {
    std::fprintf(stderr, "PARITY FAILURE: attention %s\n", name.c_str());
    std::exit(1);
  }
  r.composed_us = seconds_per_call(min_seconds, [&] {
                    (void)attention_composed(qkv, heads);
                  }) * 1e6;
  r.fused_us = seconds_per_call(min_seconds, [&] {
                 (void)nn::attention_core(qkv, heads);
               }) * 1e6;
  return r;
}

Result run_case(const Case& c, double min_seconds, Rng& rng) {
  Result r;
  const int64_t asz = c.batch * c.m * c.k;
  const int64_t bsz = c.batch * c.k * c.n;
  const int64_t csz = c.batch * c.m * c.n;
  if (c.kind == Kind::kInt8Bt) {
    std::vector<int8_t> a(static_cast<size_t>(asz));
    std::vector<int8_t> w(static_cast<size_t>(bsz));
    for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
    for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
    const int32_t zp = 7;
    // The Σw table is built once when a layer is quantized in deployment;
    // precompute it outside the timed region to match.
    const std::vector<int32_t> sums = quant::weight_row_sums(w, c.n, c.k);
    std::vector<int32_t> acc(static_cast<size_t>(csz));
    std::vector<int32_t> ref(static_cast<size_t>(csz));
    quant::int8_gemm_bt(a, zp, w, ref, c.m, c.k, c.n);
    // The int16 k-pair panels are built once, when the weight is quantized.
    const quant::PackedWeightInt8 pre = quant::pack_weights_int8(w, c.n, c.k);
    quant::int8_gemm_bt_prepacked(a, zp, pre, sums, acc, c.m);
    if (acc != ref) {
      std::fprintf(stderr, "PARITY FAILURE: %s (int8 prepacked)\n",
                   c.name.c_str());
      std::exit(1);
    }
    r.naive_gflops = time_gflops(c, min_seconds, [&] {
      quant::int8_gemm_bt(a, zp, w, ref, c.m, c.k, c.n);
    });
    r.prepacked_gflops = time_gflops(c, min_seconds, [&] {
      quant::int8_gemm_bt_prepacked(a, zp, pre, sums, acc, c.m);
    });
    r.speedup = r.prepacked_gflops / r.naive_gflops;
    return r;
  } else {
    const Tensor a = rng.randn({asz});
    const Tensor b = rng.randn({bsz});
    Tensor out({csz});
    Tensor ref({csz});
    auto dispatch = [&](bool packed, float* dst) {
      for (int64_t i = 0; i < c.batch; ++i) {
        const float* ap = a.data().data() + i * c.m * c.k;
        const float* bp = b.data().data() + i * c.k * c.n;
        float* cp = dst + i * c.m * c.n;
        switch (c.kind) {
          case Kind::kFp32Nn:
            packed ? gemm::gemm_nn(ap, bp, cp, c.m, c.k, c.n)
                   : gemm::reference::gemm_nn(ap, bp, cp, c.m, c.k, c.n);
            break;
          case Kind::kFp32Bt:
            packed ? gemm::gemm_bt(ap, bp, cp, c.m, c.k, c.n)
                   : gemm::reference::gemm_bt(ap, bp, cp, c.m, c.k, c.n);
            break;
          default:
            packed ? gemm::gemm_at(ap, bp, cp, c.m, c.k, c.n)
                   : gemm::reference::gemm_at(ap, bp, cp, c.m, c.k, c.n);
            break;
        }
      }
    };
    out.fill(0.0f);
    ref.fill(0.0f);
    dispatch(true, out.data().data());
    dispatch(false, ref.data().data());
    for (int64_t i = 0; i < csz; ++i) {
      const float tol = 2e-5f * (1.0f + std::abs(ref[i]));
      if (std::abs(out[i] - ref[i]) > tol) {
        std::fprintf(stderr, "PARITY FAILURE: %s element %lld (%g vs %g)\n",
                     c.name.c_str(), static_cast<long long>(i), out[i],
                     ref[i]);
        std::exit(1);
      }
    }
    // Prepacked applies to the weight GEMMs only: one B operand reused across
    // calls, exactly what Linear::infer() sees after prepack_for_serving().
    // Parity must run here, while `out` still holds exactly one dispatch —
    // the fp32 kernels accumulate into C, so after the timing loops `out`
    // holds result x iters.
    gemm::PackedB pre;
    Tensor pout({csz});
    const bool prepackable = c.kind == Kind::kFp32Bt && c.batch == 1;
    if (prepackable) {
      pre = gemm::pack_weights_bt(b.data().data(), c.k, c.n);
      gemm::gemm_bt_prepacked(a.data().data(), pre, pout.data().data(), c.m);
      for (int64_t i = 0; i < csz; ++i) {
        if (pout[i] != out[i]) {  // bit-exact vs pack-per-call by design
          std::fprintf(stderr,
                       "PARITY FAILURE: %s element %lld (prepacked %g vs "
                       "packed %g)\n",
                       c.name.c_str(), static_cast<long long>(i), pout[i],
                       out[i]);
          std::exit(1);
        }
      }
    }
    r.naive_gflops = time_gflops(
        c, min_seconds, [&] { dispatch(false, ref.data().data()); });
    r.packed_gflops = time_gflops(
        c, min_seconds, [&] { dispatch(true, out.data().data()); });
    if (prepackable) {
      r.prepacked_gflops = time_gflops(c, min_seconds, [&] {
        gemm::gemm_bt_prepacked(a.data().data(), pre, pout.data().data(),
                                c.m);
      });
    }
  }
  r.speedup = r.packed_gflops / r.naive_gflops;
  if (r.prepacked_gflops > 0.0)
    r.prepacked_speedup = r.prepacked_gflops / r.packed_gflops;
  return r;
}

}  // namespace
}  // namespace itask

int main() {
  using namespace itask;
  const bool fast = std::getenv("ITASK_BENCH_FAST") != nullptr;
  bench::print_header(
      "K0", "GEMM kernel layer: naive vs blocked/packed GFLOP/s");

  // Deployable-model GEMM shapes. Student d40: rows = B·(tokens+1) = 10B,
  // patch rows = 9B, qkv n = 3·40; teacher d64: dims 64/192/128. Attention
  // bmms run one tiny GEMM per image×head (head_dim = 10, tokens+1 = 10);
  // only training's backward still does (the forward is attention_core).
  std::vector<Case> cases;
  for (const int64_t b : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    const std::string sb = "_b" + std::to_string(b);
    cases.push_back({"d40_qkv" + sb, Kind::kFp32Bt, 1, 10 * b, 40, 120, true});
    cases.push_back({"d40_fc1" + sb, Kind::kFp32Bt, 1, 10 * b, 40, 80, true});
    cases.push_back({"d40_fc2" + sb, Kind::kFp32Bt, 1, 10 * b, 80, 40, true});
  }
  cases.push_back({"d40_patch_b8", Kind::kFp32Bt, 1, 72, 192, 40, true});
  cases.push_back({"d40_proj_b8", Kind::kFp32Bt, 1, 80, 40, 40, true});
  cases.push_back({"d40_cls_head_b8", Kind::kFp32Bt, 1, 72, 40, 13, true});
  cases.push_back(
      {"d40_attn_scores_b8", Kind::kFp32Bt, 32, 10, 10, 10, false});
  cases.push_back({"d40_attn_values_b8", Kind::kFp32Nn, 32, 10, 10, 10,
                   false});
  // Training-path variants (dx = g·W, dW = gᵀ·x) at d40, batch 8.
  cases.push_back({"d40_dx_qkv_b8", Kind::kFp32Nn, 1, 80, 120, 40, false});
  cases.push_back({"d40_dW_qkv_b8", Kind::kFp32At, 1, 80, 120, 40, false});
  // Teacher width.
  cases.push_back({"d64_qkv_b8", Kind::kFp32Bt, 1, 80, 64, 192, false});
  cases.push_back({"d64_fc1_b8", Kind::kFp32Bt, 1, 80, 64, 128, false});
  cases.push_back({"d64_fc2_b8", Kind::kFp32Bt, 1, 80, 128, 64, false});
  // INT8 deployable path (quantized configuration).
  for (const int64_t b : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    const std::string sb = "_b" + std::to_string(b);
    cases.push_back(
        {"int8_qkv" + sb, Kind::kInt8Bt, 1, 10 * b, 40, 120, true});
  }
  cases.push_back({"int8_fc1_b8", Kind::kInt8Bt, 1, 80, 40, 80, true});
  cases.push_back({"int8_fc2_b8", Kind::kInt8Bt, 1, 80, 80, 40, true});
  cases.push_back({"int8_patch_b8", Kind::kInt8Bt, 1, 72, 192, 40, true});

  const double min_seconds = fast ? 0.002 : 0.05;
  Rng rng(1234);
  std::printf("\n%-22s %-8s %5s %5s %5s %5s  %11s %11s %11s %7s %8s\n",
              "case", "kind", "batch", "M", "K", "N", "naive GF/s",
              "packed GF/s", "prepack GF/s", "pk/nv", "ppk/pk");
  std::vector<Result> results;
  double log_sum = 0.0;
  int64_t d40_count = 0;
  double pre_log_sum = 0.0;
  int64_t pre_count = 0;
  for (const Case& c : cases) {
    const Result r = run_case(c, min_seconds, rng);
    results.push_back(r);
    if (c.d40_deployable) {
      log_sum += std::log(r.speedup);
      ++d40_count;
      if (r.prepacked_speedup > 0.0) {
        pre_log_sum += std::log(r.prepacked_speedup);
        ++pre_count;
      }
    }
    char pk_gf[16];
    char pre_gf[16];
    char pre_sp[16];
    if (r.packed_gflops > 0.0) {
      std::snprintf(pk_gf, sizeof(pk_gf), "%11.2f", r.packed_gflops);
    } else {
      std::snprintf(pk_gf, sizeof(pk_gf), "%11s", "-");
    }
    if (r.prepacked_speedup > 0.0) {
      std::snprintf(pre_sp, sizeof(pre_sp), "%7.2fx", r.prepacked_speedup);
    } else {
      std::snprintf(pre_sp, sizeof(pre_sp), "%8s", "-");
    }
    if (r.prepacked_gflops > 0.0) {
      std::snprintf(pre_gf, sizeof(pre_gf), "%11.2f", r.prepacked_gflops);
    } else {
      std::snprintf(pre_gf, sizeof(pre_gf), "%11s", "-");
    }
    std::printf(
        "%-22s %-8s %5lld %5lld %5lld %5lld  %11.2f %s %s %6.2fx %s\n",
        c.name.c_str(), kind_name(c.kind), static_cast<long long>(c.batch),
        static_cast<long long>(c.m), static_cast<long long>(c.k),
        static_cast<long long>(c.n), r.naive_gflops, pk_gf, pre_gf,
        r.speedup, pre_sp);
  }
  const double d40_geomean =
      std::exp(log_sum / static_cast<double>(d40_count));
  const double d40_prepacked_geomean =
      pre_count > 0 ? std::exp(pre_log_sum / static_cast<double>(pre_count))
                    : 0.0;
  std::printf("\nd40 deployable-shape geomean speedup: %.2fx (%lld cases)\n",
              d40_geomean, static_cast<long long>(d40_count));
  std::printf(
      "d40 prepacked-over-pack-per-call geomean: %.2fx (%lld fp32 weight-GEMM "
      "cases)\n",
      d40_prepacked_geomean, static_cast<long long>(pre_count));

  // INT8 activation quantize at the served sizes: 400 (b1 d40 rows × 40),
  // 1600 (b4) and 13 824 elements (the b8 patch-embed input, 72 × 192).
  std::printf("\n%-18s %8s %11s %11s %11s %8s\n", "int8 quantize", "elems",
              "scalar ns/e", "kernel ns/e", "panels ns/e", "sc/krn");
  std::vector<QuantizeRow> qrows;
  for (const auto& [rows, k] :
       {std::pair<int64_t, int64_t>{10, 40}, {40, 40}, {72, 192}}) {
    const QuantizeRow q = run_quantize_row(rows, k, min_seconds, rng);
    qrows.push_back(q);
    std::printf("%-18s %8lld %11.3f %11.3f %11.3f %7.1fx\n",
                ("act_" + std::to_string(rows) + "x" + std::to_string(k))
                    .c_str(),
                static_cast<long long>(rows * k), q.scalar_ns, q.kernel_ns,
                q.panels_ns, q.scalar_ns / q.kernel_ns);
  }

  // GELU at the served sizes: 360 (b1 box head, 9 × 40), 800 (b1 fc1,
  // 10 × 80) and 6 400 elements (b8 fc1, 80 × 80).
  std::printf("\n%-18s %8s %11s %11s %8s\n", "gelu", "elems", "libm ns/e",
              "ops ns/e", "lb/ops");
  std::vector<GeluRow> grows;
  for (const auto& [rows, cols] :
       {std::pair<int64_t, int64_t>{9, 40}, {10, 80}, {80, 80}}) {
    const GeluRow g = run_gelu_row(rows, cols, min_seconds, rng);
    grows.push_back(g);
    std::printf("%-18s %8lld %11.3f %11.3f %7.1fx\n",
                ("gelu_" + std::to_string(rows) + "x" + std::to_string(cols))
                    .c_str(),
                static_cast<long long>(rows * cols), g.libm_ns, g.ops_ns,
                g.libm_ns / g.ops_ns);
  }

  // attention_core at the served shapes: 10 tokens (9 patches + CLS),
  // 4 heads; student d40 at b1 and b8, teacher d64 at b8.
  std::printf("\n%-18s %5s %5s %5s %13s %10s %8s\n", "attention_core",
              "batch", "T", "D", "composed us", "fused us", "cmp/fus");
  std::vector<AttentionRow> arows;
  for (const auto& [name, b, d] :
       {std::tuple<const char*, int64_t, int64_t>{"attn_d40_b1", 1, 40},
        {"attn_d40_b8", 8, 40},
        {"attn_d64_b8", 8, 64}}) {
    const AttentionRow a =
        run_attention_row(name, b, 10, d, 4, min_seconds, rng);
    arows.push_back(a);
    std::printf("%-18s %5lld %5lld %5lld %13.2f %10.2f %7.1fx\n",
                a.name.c_str(), static_cast<long long>(a.batch),
                static_cast<long long>(a.tokens),
                static_cast<long long>(a.dim), a.composed_us, a.fused_us,
                a.composed_us / a.fused_us);
  }

  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"k0_gemm\",\n  \"mode\": \"%s\",\n",
               fast ? "fast" : "full");
  std::fprintf(json,
               "  \"d40_geomean_speedup\": %.3f,\n"
               "  \"d40_prepacked_geomean_speedup\": %.3f,\n"
               "  \"cases\": [\n",
               d40_geomean, d40_prepacked_geomean);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Result& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"kind\": \"%s\", \"batch\": %lld, "
        "\"m\": %lld, \"k\": %lld, \"n\": %lld, \"d40_deployable\": %s, "
        "\"naive_gflops\": %.3f, \"packed_gflops\": %.3f, "
        "\"prepacked_gflops\": %.3f, \"speedup\": %.3f, "
        "\"prepacked_speedup\": %.3f}%s\n",
        c.name.c_str(), kind_name(c.kind), static_cast<long long>(c.batch),
        static_cast<long long>(c.m), static_cast<long long>(c.k),
        static_cast<long long>(c.n), c.d40_deployable ? "true" : "false",
        r.naive_gflops, r.packed_gflops, r.prepacked_gflops, r.speedup,
        r.prepacked_speedup, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"int8_quantize\": [\n");
  for (size_t i = 0; i < qrows.size(); ++i) {
    const QuantizeRow& q = qrows[i];
    std::fprintf(json,
                 "    {\"rows\": %lld, \"k\": %lld, \"elements\": %lld, "
                 "\"scalar_ns_per_elem\": %.3f, \"kernel_ns_per_elem\": %.3f, "
                 "\"panels_ns_per_elem\": %.3f}%s\n",
                 static_cast<long long>(q.rows), static_cast<long long>(q.k),
                 static_cast<long long>(q.rows * q.k), q.scalar_ns,
                 q.kernel_ns, q.panels_ns, i + 1 < qrows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"gelu\": [\n");
  for (size_t i = 0; i < grows.size(); ++i) {
    const GeluRow& g = grows[i];
    std::fprintf(json,
                 "    {\"rows\": %lld, \"cols\": %lld, \"elements\": %lld, "
                 "\"libm_ns_per_elem\": %.3f, \"ops_ns_per_elem\": %.3f}%s\n",
                 static_cast<long long>(g.rows), static_cast<long long>(g.cols),
                 static_cast<long long>(g.rows * g.cols), g.libm_ns, g.ops_ns,
                 i + 1 < grows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"attention_core\": [\n");
  for (size_t i = 0; i < arows.size(); ++i) {
    const AttentionRow& a = arows[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"batch\": %lld, \"tokens\": %lld, "
                 "\"dim\": %lld, \"heads\": %lld, \"composed_us\": %.3f, "
                 "\"fused_us\": %.3f}%s\n",
                 a.name.c_str(), static_cast<long long>(a.batch),
                 static_cast<long long>(a.tokens),
                 static_cast<long long>(a.dim),
                 static_cast<long long>(a.heads), a.composed_us, a.fused_us,
                 i + 1 < arows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_kernels.json (%zu cases)\n", cases.size());

  // Where the packed kernels spend their time: the tensor/profile.h scoped
  // timers (normally disabled, zero-cost — the GFLOP/s above are measured
  // hooks-off) attribute wall time to pack vs micro-kernel vs (for int8)
  // the quantize-into-panels/dequantize edges. Representative d40 shape,
  // batch 8; the INT8 side is the FP32-input qlinear_forward.
  std::printf("\nkernel profile attribution (d40_qkv_b8: fp32_bt 80x40x120 + "
              "int8 qlinear_forward 80x40x120)\n\n");
  {
    const int64_t m = 80, k = 40, n = 120;
    const Tensor a = rng.randn({m * k});
    const Tensor b = rng.randn({n * k});
    Tensor out({m * n});
    // The served INT8 linear: FP32 activations quantized straight into the
    // A panels, the packed-weight loop nest, then dequant.
    const Tensor x = rng.randn({m, k});
    const quant::QuantizedWeight qw = quant::quantize_weight_packed(
        rng.randn({n, k}), quant::WeightGranularity::kPerChannel);
    const quant::QuantParams act = quant::QuantParams::asymmetric(-3.0f, 3.0f);
    profile::reset();
    profile::set_enabled(true);
    const int64_t iters = fast ? 200 : 2000;
    for (int64_t i = 0; i < iters; ++i) {
      gemm::gemm_bt(a.data().data(), b.data().data(), out.data().data(), m, k,
                    n);
      (void)quant::qlinear_forward(x, act, qw, nullptr);
    }
    profile::set_enabled(false);
    const std::vector<profile::SectionStats> sections = profile::snapshot();
    int64_t total_ns = 0;
    for (const profile::SectionStats& s : sections) total_ns += s.total_ns;
    std::printf("%-16s %12s %10s %7s\n", "section", "calls", "us/call",
                "share%");
    for (const profile::SectionStats& s : sections) {
      std::printf("%-16s %12s %10.3f %7.1f\n", s.name,
                  fmt::i64(s.calls).c_str(),
                  static_cast<double>(s.total_ns) * 1e-3 /
                      static_cast<double>(s.calls),
                  total_ns > 0
                      ? 100.0 * static_cast<double>(s.total_ns) /
                            static_cast<double>(total_ns)
                      : 0.0);
    }
    profile::reset();
  }

  bench::print_footer_note(
      "expected shape: blocked >= 3x naive geomean on the d40 deployable "
      "weight-GEMM shapes (fp32_bt packed + int8_bt prepacked); fp32 "
      "prepacked > 1x geomean over pack-per-call on the d40 weight GEMMs, "
      "largest at the thin serving shapes (m = 10..80, where the per-call "
      "B-pack dominates) and approaching parity by b32 (m = 320 amortizes "
      "the pack); bit-exact against pack-per-call everywhere. INT8 has no "
      "pack-per-call column: its weights are packed once, when quantized. "
      "Attention bmms (10x10x10 per-head "
      "tiles) gain least and have no prepacked column — no publish-time "
      "weight operand. Parity vs the naive kernels is checked before "
      "timing. INT8 quantize: the vector kernel and the fused panel "
      "producer run several times faster per element than the scalar "
      "loop, bit-identical to it. GELU: ops::gelu (vector exp) runs "
      "many times faster per element than the libm tanhf form, within "
      "5e-7 of it. attention_core: the fused routine runs faster per "
      "call than the composed path at every row, bit-identical to it. "
      "Attribution: the micro-kernel sections "
      "dominate, pack and quantize stay minority shares at these shapes "
      "(int8_pack reads nothing: the served INT8 path quantizes into its "
      "panels); GFLOP/s numbers are hooks-off.");
  return 0;
}
