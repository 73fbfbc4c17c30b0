// Bridges the ViT model to the hardware simulator: describes one inference
// as an ordered list of GEMM and vector operations with exact dimensions.
// The accelerator scheduler (accel/) consumes this; it never needs to see
// tensors, only shapes — the same separation a real compiler stack has.
// The list is recorded from the served graph (vit/graph.h), not written
// out by hand, so the simulators model the network that serving runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vit/config.h"

namespace itask::vit {

/// One matrix multiplication [m, k] x [k, n]. `weight_resident` is true when
/// the B operand is a static weight (can be pre-staged / reused across
/// batches); false for activation×activation products (attention).
struct GemmOp {
  std::string name;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  bool weight_resident = true;

  int64_t macs() const { return m * k * n; }
  int64_t weight_bytes_int8() const { return weight_resident ? k * n : 0; }
  int64_t input_bytes_int8() const { return m * k; }
  int64_t output_bytes_int8() const { return m * n; }
};

/// One elementwise / row-wise vector operation (softmax, layernorm, GELU…)
/// executed on the accelerator's vector unit or the GPU's SIMT lanes.
struct VectorOp {
  std::string name;
  int64_t elements = 0;
  /// Relative cost per element, from one per-kind table in workload.cpp
  /// (add 1, layernorm 6, softmax 4, GELU 8, head activations 3).
  double flops_per_element = 1.0;
};

/// A full single-model inference; each list is in execution order.
struct InferenceWorkload {
  std::string model_name;
  int64_t batch = 1;
  /// Bytes that cross DRAM per inference besides the weights: the input
  /// frames plus the detection outputs, one INT8 byte per element.
  int64_t io_bytes_int8 = 0;
  std::vector<GemmOp> gemms;
  std::vector<VectorOp> vector_ops;

  int64_t total_macs() const;
  int64_t total_weight_bytes_int8() const;
  int64_t total_activation_bytes_int8() const;
  double total_vector_flops() const;
  /// Number of distinct kernels a GPU launch would issue (one per op).
  int64_t kernel_count() const {
    return static_cast<int64_t>(gemms.size() + vector_ops.size());
  }
};

/// Records every op of a detection-ViT forward pass at batch size `batch`:
/// builds a VitModel of `config` (fixed seed), runs one zero batch through
/// vit::run_graph and converts each GraphEvent into ops:
///  * a linear → one GemmOp (m = rows, k = input width, n = output width),
///    then a VectorOp for its GELU or residual-add epilogue, if any;
///  * the attention step → attn_scores, softmax and attn_value;
///  * LayerNorm and token assembly → one VectorOp each.
/// Decode's head_activations follow the graph's ops. io_bytes_int8 counts
/// the images the graph read and the five detection outputs it returned.
/// Throws
/// std::invalid_argument for a config the model rejects (e.g. dim not
/// divisible by heads, image_size not divisible by patch_size).
InferenceWorkload build_workload(const ViTConfig& config, int64_t batch,
                                 const std::string& model_name = "vit");

}  // namespace itask::vit
