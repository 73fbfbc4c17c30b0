#include "vit/workload.h"

#include <array>
#include <utility>

#include "tensor/rng.h"
#include "vit/graph.h"

namespace itask::vit {

int64_t InferenceWorkload::total_macs() const {
  int64_t acc = 0;
  for (const GemmOp& g : gemms) acc += g.macs();
  return acc;
}

int64_t InferenceWorkload::total_weight_bytes_int8() const {
  int64_t acc = 0;
  for (const GemmOp& g : gemms) acc += g.weight_bytes_int8();
  return acc;
}

int64_t InferenceWorkload::total_activation_bytes_int8() const {
  int64_t acc = 0;
  for (const GemmOp& g : gemms)
    acc += g.input_bytes_int8() + g.output_bytes_int8();
  return acc;
}

double InferenceWorkload::total_vector_flops() const {
  double acc = 0.0;
  for (const VectorOp& v : vector_ops)
    acc += static_cast<double>(v.elements) * v.flops_per_element;
  return acc;
}

namespace {

/// The kinds of vector op, and the table of what each costs the vector
/// unit per element.
enum VectorKind : size_t {
  kAdd,             // token assembly (+ position) and the residual adds
  kLayerNorm,
  kSoftmax,
  kGelu,            // tanh approximation
  kHeadActivation,  // the decoder's sigmoids and softmaxes
  kVectorKinds
};
constexpr std::array<double, kVectorKinds> kFlopsPerElement = {1.0, 6.0, 4.0,
                                                               8.0, 3.0};

/// The model whose graph build_workload records; only shapes are read, so
/// any weights do.
constexpr uint64_t kRecordingSeed = 1;

int64_t width(const Tensor& t) { return t.dim(t.ndim() - 1); }
int64_t rows(const Tensor& t) { return t.numel() / width(t); }

}  // namespace

InferenceWorkload build_workload(const ViTConfig& c, int64_t batch,
                                 const std::string& model_name) {
  ITASK_CHECK(batch >= 1, "build_workload: batch must be >= 1");
  InferenceWorkload w;
  w.model_name = model_name;
  w.batch = batch;
  const auto vector_op = [&](std::string name, int64_t elements,
                             VectorKind kind) {
    w.vector_ops.push_back(
        {std::move(name), elements, kFlopsPerElement[kind]});
  };
  const auto record = [&](const GraphEvent& e) {
    const std::string prefix =
        e.block == GraphEvent::kNoBlock
            ? std::string()
            : "block" + std::to_string(e.block) + ".";
    const std::string name = prefix + e.name;
    switch (e.step) {
      case Step::kLinear:
        w.gemms.push_back(
            {name, rows(e.input), width(e.input), width(e.output), true});
        if (e.epilogue.gelu)
          vector_op(name + "_gelu", e.output.numel(), kGelu);
        if (e.epilogue.residual != nullptr)
          vector_op(name + "_residual", e.output.numel(), kAdd);
        return;
      case Step::kAttention: {
        // Activation×activation products: one logical GEMM per (image,
        // head) pair, folded into a single row-blocked op.
        const int64_t bh = e.input.dim(0) * c.heads;
        const int64_t t = e.input.dim(1);
        const int64_t hd = width(e.output) / c.heads;
        w.gemms.push_back({prefix + "attn_scores", bh * t, hd, t, false});
        vector_op(prefix + "softmax", bh * t * t, kSoftmax);
        w.gemms.push_back({prefix + "attn_value", bh * t, t, hd, false});
        return;
      }
      case Step::kLayerNorm:
        vector_op(name, e.output.numel(), kLayerNorm);
        return;
      case Step::kAssembleTokens:
        vector_op(name, e.output.numel(), kAdd);
        return;
    }
  };
  Rng rng(kRecordingSeed);
  const VitModel model(c, rng);
  const Tensor images({batch, c.channels, c.image_size, c.image_size});
  const VitOutput out = model.infer(images, record);
  w.io_bytes_int8 = images.numel() + out.objectness.numel() +
                    out.class_logits.numel() + out.attr_logits.numel() +
                    out.box_deltas.numel() + out.relevance.numel();
  // Decode's sigmoids and softmaxes run after the graph, on its outputs.
  vector_op("head_activations",
            batch * c.tokens() * (1 + c.num_classes + c.num_attributes),
            kHeadActivation);
  return w;
}

}  // namespace itask::vit
