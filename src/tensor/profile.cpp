#include "tensor/profile.h"

namespace itask::profile {

namespace detail {

std::atomic<bool> g_enabled{false};
SectionCell g_cells[static_cast<int>(Section::kCount)];
std::atomic<int64_t> g_counters[static_cast<int>(Counter::kCounterCount)];

}  // namespace detail

const char* section_name(Section s) {
  switch (s) {
    case Section::kGemmPack: return "gemm_pack";
    case Section::kGemmKernel: return "gemm_kernel";
    case Section::kInt8Pack: return "int8_pack";
    case Section::kInt8Kernel: return "int8_kernel";
    case Section::kInt8Quantize: return "int8_quantize";
    case Section::kInt8Dequant: return "int8_dequant";
    case Section::kCount: break;
  }
  return "?";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kGemmPrepackedCalls: return "gemm_prepacked_calls";
    case Counter::kGemmPackBytesAvoided: return "gemm_pack_bytes_avoided";
    case Counter::kCounterCount: break;
  }
  return "?";
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  for (auto& cell : detail::g_cells) {
    cell.calls.store(0, std::memory_order_relaxed);
    cell.total_ns.store(0, std::memory_order_relaxed);
  }
  for (auto& counter : detail::g_counters)
    counter.store(0, std::memory_order_relaxed);
}

std::vector<SectionStats> snapshot() {
  std::vector<SectionStats> out;
  for (int i = 0; i < static_cast<int>(Section::kCount); ++i) {
    const auto& cell = detail::g_cells[i];
    SectionStats s;
    s.section = static_cast<Section>(i);
    s.name = section_name(s.section);
    s.calls = cell.calls.load(std::memory_order_relaxed);
    s.total_ns = cell.total_ns.load(std::memory_order_relaxed);
    if (s.calls > 0) out.push_back(s);
  }
  return out;
}

std::vector<CounterStats> counter_snapshot() {
  std::vector<CounterStats> out;
  for (int i = 0; i < static_cast<int>(Counter::kCounterCount); ++i) {
    CounterStats s;
    s.counter = static_cast<Counter>(i);
    s.name = counter_name(s.counter);
    s.value = detail::g_counters[i].load(std::memory_order_relaxed);
    if (s.value != 0) out.push_back(s);
  }
  return out;
}

}  // namespace itask::profile
