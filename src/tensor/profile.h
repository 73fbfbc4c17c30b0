// Near-zero-cost kernel profiling hooks for the hot GEMM paths.
//
// A ScopedTimer placed around a kernel section costs one relaxed atomic load
// (and a predictable branch) while profiling is disabled — cheap enough to
// live permanently in tensor/gemm.cpp and quant/int8_gemm.cpp without
// perturbing bench_k0 numbers. When enabled at runtime
// (profile::set_enabled(true)), each section accumulates call count and
// wall nanoseconds into lock-free per-section atomics, so concurrent
// inference workers (src/runtime) record without contention or races.
//
// Sections are a fixed enum, not named strings: registration-free, no
// allocation on the hot path, and snapshot() is a handful of relaxed loads.
// The snapshot feeds the same exposition formats as the serving metrics
// (runtime/exposition), which is how bench_k0 and servebench attribute wall
// time to pack vs micro-kernel vs quantize/dequantize.
//
// ITASK_PROFILE_SCOPE compiles to nothing under -DITASK_NO_PROFILING for
// builds that want the hooks gone entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace itask::profile {

enum class Section : int {
  kGemmPack = 0,   // fp32 A/B panel packing (tensor/gemm.cpp)
  kGemmKernel,     // fp32 micro-kernel loop nest incl. C writeback
  kInt8Pack,       // int8→int16 k-pair panel packing (quant/int8_gemm.cpp)
  kInt8Kernel,     // int8 micro-kernel loop nest incl. writeback/correction
  kInt8Quantize,   // fp32→int8 activation quantization (qlinear_forward)
  kInt8Dequant,    // int32→fp32 dequant + bias epilogue (qlinear_forward)
  kCount
};

const char* section_name(Section s);

/// Event counters beside the section timers: the fp32 prepacked GEMM entry
/// point ticks these so the attribution tables show the pack work *avoided*
/// by publish-time weight pre-packing instead of pack time silently
/// vanishing. (INT8 weights have one packed form from quantization on, so
/// there is no per-call alternative to count against.) Same cost model as
/// the timers: one relaxed load when disabled.
enum class Counter : int {
  kGemmPrepackedCalls = 0,  // fp32 gemm_bt_prepacked invocations
  kGemmPackBytesAvoided,    // fp32 B-panel bytes NOT packed thanks to prepack
  kCounterCount
};

const char* counter_name(Counter c);

namespace detail {

extern std::atomic<bool> g_enabled;

struct SectionCell {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> total_ns{0};
};

extern SectionCell g_cells[static_cast<int>(Section::kCount)];
extern std::atomic<int64_t> g_counters[static_cast<int>(Counter::kCounterCount)];

}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

/// Zeroes every section (counts and nanoseconds). Not atomic with respect to
/// concurrent timers — call it between runs, not during one.
void reset();

struct SectionStats {
  Section section{};
  const char* name = "";
  int64_t calls = 0;
  int64_t total_ns = 0;
};

/// Sections with at least one recorded call, in enum order. Empty when the
/// hooks are disabled or no instrumented kernel ran — the "hooks off ⇒ no
/// histogram created" contract tests assert exactly this.
std::vector<SectionStats> snapshot();

struct CounterStats {
  Counter counter{};
  const char* name = "";
  int64_t value = 0;
};

/// Counters with a non-zero value, in enum order. Like snapshot(), empty when
/// the hooks are disabled or no prepacked kernel ran.
std::vector<CounterStats> counter_snapshot();

/// Adds `delta` to a counter when profiling is enabled (relaxed atomic; safe
/// from concurrent inference workers). Prefer ITASK_PROFILE_COUNT, which
/// compiles out under -DITASK_NO_PROFILING.
inline void add_count(Counter c, int64_t delta) {
  if (enabled())
    detail::g_counters[static_cast<int>(c)].fetch_add(
        delta, std::memory_order_relaxed);
}

/// RAII section timer. Reads the enable flag once at construction; a timer
/// alive across set_enabled() keeps its construction-time decision.
class ScopedTimer {
 public:
  explicit ScopedTimer(Section s) {
    if (enabled()) {
      section_ = s;
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      auto& cell = detail::g_cells[static_cast<int>(section_)];
      cell.calls.fetch_add(1, std::memory_order_relaxed);
      cell.total_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Section section_ = Section::kGemmPack;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace itask::profile

#ifdef ITASK_NO_PROFILING
#define ITASK_PROFILE_SCOPE(section)
#define ITASK_PROFILE_COUNT(counter, delta)
#else
#define ITASK_PROFILE_COUNT(counter, delta) \
  ::itask::profile::add_count((counter), (delta))
#define ITASK_PROFILE_CONCAT_IMPL(a, b) a##b
#define ITASK_PROFILE_CONCAT(a, b) ITASK_PROFILE_CONCAT_IMPL(a, b)
#define ITASK_PROFILE_SCOPE(section)                 \
  ::itask::profile::ScopedTimer ITASK_PROFILE_CONCAT( \
      itask_profile_scope_, __LINE__)(section)
#endif
