#include "quant/qvit.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

namespace itask::quant {

namespace {

/// Whether `name` is a head-bank slot after the first. Every head reads
/// patch_feats, so the bank's one calibrator observes it on the first.
bool is_later_head(std::string_view name) {
  return std::find(vit::kHeadKeys.begin() + 1, vit::kHeadKeys.end(), name) !=
         vit::kHeadKeys.end();
}

/// The tensor stored under `key`, or an empty one (an absent bias).
Tensor optional(const io::StateDict& state, const std::string& key) {
  const auto it = state.find(key);
  return it != state.end() ? it->second : Tensor();
}

}  // namespace

QLinearLayer::QLinearLayer(const Tensor& weight, Tensor bias,
                           const QuantParams& act, const QuantOptions& options)
    : qweight_(quantize_weight_packed(weight, options.granularity,
                                      options.weight_bits)),
      bias_(std::move(bias)),
      act_(act.with_bits(options.activation_bits)) {}

Tensor QLinearLayer::forward(const Tensor& x, const ops::Epilogue& ep) const {
  return qlinear_forward(x, act_, qweight_, bias_.empty() ? nullptr : &bias_,
                         ep);
}

QHeadBank::QHeadBank(const std::array<Tensor, vit::kHeadSlots>& weights,
                     std::array<Tensor, vit::kHeadSlots> biases,
                     const QuantParams& act, const QuantOptions& options)
    : biases_(std::move(biases)),
      act_(act.with_bits(options.activation_bits)) {
  std::array<QuantizedWeight, vit::kHeadSlots> parts;
  for (size_t h = 0; h < vit::kHeadSlots; ++h) {
    ITASK_CHECK(weights[h].ndim() == 2 && weights[h].dim(1) == weights[0].dim(1),
                "QHeadBank: weights must be 2-D with one input extent");
    parts[h] = quantize_weight(weights[h], options.granularity,
                               options.weight_bits);
    cols_[h] = weights[h].dim(0);
  }
  qweight_ = stack_weights_packed(parts);
}

vit::HeadOutputs QHeadBank::forward(const Tensor& x,
                                    const vit::HeadEpilogues& eps) const {
  vit::HeadOutputs out;
  std::array<QLinearOutput, vit::kHeadSlots> outputs;
  for (size_t h = 0; h < vit::kHeadSlots; ++h)
    outputs[h] = {cols_[h], biases_[h].empty() ? nullptr : &biases_[h],
                  eps[h], &out[h]};
  qlinear_forward(x, act_, qweight_, outputs);
  return out;
}

QuantizedVit::QuantizedVit(const vit::VitModel& model,
                           const Tensor& calibration_images,
                           QuantOptions options)
    : config_(model.config()), options_(options) {
  // Calibration: the FP32 served graph, each linear's input observed by its
  // own calibrator, keyed by the event's block and name.
  std::map<std::pair<int64_t, std::string>, std::unique_ptr<Calibrator>>
      calibrators;
  (void)model.infer(calibration_images, [&](const vit::GraphEvent& e) {
    if (e.step != vit::Step::kLinear || is_later_head(e.name)) return;
    std::unique_ptr<Calibrator>& c = calibrators[{e.block, e.name}];
    if (c == nullptr) c = make_calibrator(options_.method);
    c->observe(e.input);
  });
  const auto act = [&](int64_t block, const char* name) {
    return calibrators.at({block, name})->params();
  };

  // Quantization: each weight read from the model, on its calibrated range.
  const io::StateDict state = model.state_dict();
  constexpr int64_t kTop = vit::GraphEvent::kNoBlock;
  const auto linear = [&](const std::string& key, int64_t block,
                          const char* name) {
    return QLinearLayer(state.at(key + ".weight"),
                        optional(state, key + ".bias"), act(block, name),
                        options_);
  };
  layers_.patch_proj = linear("embed.proj", kTop, "patch_embed");
  layers_.cls = state.at("embed.cls");
  layers_.pos = state.at("embed.pos");
  for (int64_t i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.block" + std::to_string(i) + ".";
    Block blk;
    blk.ln1_gamma = state.at(p + "ln1.gamma");
    blk.ln1_beta = state.at(p + "ln1.beta");
    blk.ln2_gamma = state.at(p + "ln2.gamma");
    blk.ln2_beta = state.at(p + "ln2.beta");
    blk.qkv = linear(p + "attn.qkv", i, "qkv");
    blk.proj = linear(p + "attn.proj", i, "proj");
    blk.fc1 = linear(p + "fc1", i, "fc1");
    blk.fc2 = linear(p + "fc2", i, "fc2");
    layers_.blocks.push_back(std::move(blk));
  }
  layers_.final_ln_gamma = state.at("encoder.final_ln.gamma");
  layers_.final_ln_beta = state.at("encoder.final_ln.beta");
  std::array<Tensor, vit::kHeadSlots> head_weights, head_biases;
  for (size_t h = 0; h < vit::kHeadSlots; ++h) {
    const std::string key = vit::kHeadKeys[h];
    head_weights[h] = state.at(key + ".weight");
    head_biases[h] = optional(state, key + ".bias");
  }
  layers_.heads = QHeadBank(head_weights, std::move(head_biases),
                            act(kTop, vit::kHeadKeys[0]), options_);
  layers_.box_fc2 = linear("box_fc2", kTop, "box_fc2");
}

vit::VitOutput QuantizedVit::forward(const Tensor& images) const {
  return vit::run_graph(
      config_, layers_, images,
      [](const auto& layer, const Tensor& x, const auto& ep) {
        return layer.forward(x, ep);
      },
      vit::NoSink{});
}

int64_t QuantizedVit::quantized_weight_bytes() const {
  const auto bytes = [](const auto& layer) {
    return static_cast<int64_t>(layer.quantized_weight().data.size());
  };
  int64_t total = bytes(layers_.patch_proj) + bytes(layers_.heads) +
                  bytes(layers_.box_fc2);
  for (const Block& blk : layers_.blocks)
    total += bytes(blk.qkv) + bytes(blk.proj) + bytes(blk.fc1) + bytes(blk.fc2);
  return total;
}

}  // namespace itask::quant
