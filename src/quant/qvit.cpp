#include "quant/qvit.h"

#include "tensor/ops.h"

namespace itask::quant {

namespace {

Tensor fetch(const io::StateDict& state, const std::string& key) {
  const auto it = state.find(key);
  ITASK_CHECK(it != state.end(), "QuantizedVit: missing key " + key);
  return it->second;
}

/// The linear layer stored under `key` ("<key>.weight", optional bias).
QLinearLayer linear(const io::StateDict& state, const std::string& key,
                    const QuantOptions& options) {
  const auto bias = state.find(key + ".bias");
  return QLinearLayer(fetch(state, key + ".weight"),
                      bias != state.end() ? bias->second : Tensor(), options);
}

/// The FP32 reference linear: x·Wᵀ + b with x's leading axes, then `ep`.
Tensor fp32_linear(const Tensor& x, const Tensor& weight, const Tensor& bias,
                   const ops::Epilogue& ep) {
  Tensor y = ops::matmul_bt(
      x.reshape({x.numel() / weight.dim(1), weight.dim(1)}), weight);
  if (!bias.empty()) y = ops::add_rowwise(y, bias);
  Shape out_shape = x.shape();
  out_shape.back() = weight.dim(0);
  return ops::apply_epilogue(y.reshape(std::move(out_shape)), ep);
}

/// Calls f on every quantized layer of `layers` (a VitLayers) — each
/// QLinearLayer and the QHeadBank — const or not.
template <typename Layers, typename F>
void for_each_linear(Layers& layers, F&& f) {
  f(layers.patch_proj);
  for (auto& blk : layers.blocks) {
    f(blk.qkv);
    f(blk.proj);
    f(blk.fc1);
    f(blk.fc2);
  }
  f(layers.heads);
  f(layers.box_fc2);
}

}  // namespace

QLinearLayer::QLinearLayer(Tensor weight, Tensor bias,
                           const QuantOptions& options)
    : fp32_weight_(std::move(weight)),
      bias_(std::move(bias)),
      calibrator_(make_calibrator(options.method)) {
  ITASK_CHECK(fp32_weight_.ndim() == 2, "QLinearLayer: weight must be 2-D");
}

Tensor QLinearLayer::forward_calibrating(const Tensor& x,
                                         const ops::Epilogue& ep) {
  ITASK_CHECK(calibrator_ != nullptr,
              "QLinearLayer: calibration already finalized");
  calibrator_->observe(x);
  return fp32_linear(x, fp32_weight_, bias_, ep);
}

Tensor QLinearLayer::forward(const Tensor& x, const ops::Epilogue& ep) const {
  ITASK_CHECK(finalized_, "QLinearLayer: forward before finalize");
  return qlinear_forward(x, act_, qweight_, bias_.empty() ? nullptr : &bias_,
                         ep);
}

void QLinearLayer::finalize(const QuantOptions& options) {
  ITASK_CHECK(calibrator_ != nullptr, "QLinearLayer: double finalize");
  act_ = calibrator_->finalize().with_bits(options.activation_bits);
  qweight_ = quantize_weight_packed(fp32_weight_, options.granularity,
                                    options.weight_bits);
  calibrator_.reset();
  finalized_ = true;
}

QHeadBank::QHeadBank(std::array<Tensor, vit::kHeadSlots> weights,
                     std::array<Tensor, vit::kHeadSlots> biases,
                     const QuantOptions& options)
    : fp32_weights_(std::move(weights)),
      biases_(std::move(biases)),
      calibrator_(make_calibrator(options.method)) {
  for (const Tensor& w : fp32_weights_)
    ITASK_CHECK(w.ndim() == 2 && w.dim(1) == fp32_weights_[0].dim(1),
                "QHeadBank: weights must be 2-D with one input extent");
}

vit::HeadOutputs QHeadBank::forward_calibrating(
    const Tensor& x, const vit::HeadEpilogues& eps) {
  ITASK_CHECK(calibrator_ != nullptr,
              "QHeadBank: calibration already finalized");
  calibrator_->observe(x);
  vit::HeadOutputs out;
  for (size_t h = 0; h < vit::kHeadSlots; ++h)
    out[h] = fp32_linear(x, fp32_weights_[h], biases_[h], eps[h]);
  return out;
}

vit::HeadOutputs QHeadBank::forward(const Tensor& x,
                                    const vit::HeadEpilogues& eps) const {
  ITASK_CHECK(finalized_, "QHeadBank: forward before finalize");
  vit::HeadOutputs out;
  std::array<QLinearOutput, vit::kHeadSlots> outputs;
  for (size_t h = 0; h < vit::kHeadSlots; ++h)
    outputs[h] = {fp32_weights_[h].dim(0),
                  biases_[h].empty() ? nullptr : &biases_[h], eps[h], &out[h]};
  qlinear_forward(x, act_, qweight_, outputs);
  return out;
}

void QHeadBank::finalize(const QuantOptions& options) {
  ITASK_CHECK(calibrator_ != nullptr, "QHeadBank: double finalize");
  act_ = calibrator_->finalize().with_bits(options.activation_bits);
  std::array<QuantizedWeight, vit::kHeadSlots> parts;
  for (size_t h = 0; h < vit::kHeadSlots; ++h)
    parts[h] = quantize_weight(fp32_weights_[h], options.granularity,
                               options.weight_bits);
  qweight_ = stack_weights_packed(parts);
  calibrator_.reset();
  finalized_ = true;
}

QuantizedVit::QuantizedVit(const vit::ViTConfig& config,
                           const io::StateDict& state, QuantOptions options)
    : config_(config), options_(options) {
  layers_.patch_proj = linear(state, "embed.proj", options_);
  layers_.cls = fetch(state, "embed.cls");
  layers_.pos = fetch(state, "embed.pos");
  for (int64_t i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.block" + std::to_string(i) + ".";
    Block blk;
    blk.ln1_gamma = fetch(state, p + "ln1.gamma");
    blk.ln1_beta = fetch(state, p + "ln1.beta");
    blk.ln2_gamma = fetch(state, p + "ln2.gamma");
    blk.ln2_beta = fetch(state, p + "ln2.beta");
    blk.qkv = linear(state, p + "attn.qkv", options_);
    blk.proj = linear(state, p + "attn.proj", options_);
    blk.fc1 = linear(state, p + "fc1", options_);
    blk.fc2 = linear(state, p + "fc2", options_);
    layers_.blocks.push_back(std::move(blk));
  }
  layers_.final_ln_gamma = fetch(state, "encoder.final_ln.gamma");
  layers_.final_ln_beta = fetch(state, "encoder.final_ln.beta");
  std::array<Tensor, vit::kHeadSlots> head_weights, head_biases;
  for (size_t h = 0; h < vit::kHeadSlots; ++h) {
    const std::string key = vit::kHeadKeys[h];
    head_weights[h] = fetch(state, key + ".weight");
    const auto bias = state.find(key + ".bias");
    if (bias != state.end()) head_biases[h] = bias->second;
  }
  layers_.heads = QHeadBank(std::move(head_weights), std::move(head_biases),
                            options_);
  layers_.box_fc2 = linear(state, "box_fc2", options_);
}

QuantizedVit QuantizedVit::from_model(vit::VitModel& model,
                                      QuantOptions options) {
  return QuantizedVit(model.config(), model.state_dict(), options);
}

void QuantizedVit::calibrate(const Tensor& images) {
  ITASK_CHECK(!finalized_, "QuantizedVit: calibrate after finalize");
  (void)vit::run_graph(
      config_, layers_, images,
      [](auto& layer, const Tensor& x, const auto& ep) {
        return layer.forward_calibrating(x, ep);
      },
      vit::NoSink{});
}

void QuantizedVit::finalize() {
  ITASK_CHECK(!finalized_, "QuantizedVit: double finalize");
  for_each_linear(layers_, [&](auto& layer) { layer.finalize(options_); });
  finalized_ = true;
}

vit::VitOutput QuantizedVit::forward(const Tensor& images) const {
  ITASK_CHECK(finalized_, "QuantizedVit: forward before finalize");
  return vit::run_graph(
      config_, layers_, images,
      [](const auto& layer, const Tensor& x, const auto& ep) {
        return layer.forward(x, ep);
      },
      vit::NoSink{});
}

int64_t QuantizedVit::quantized_weight_bytes() const {
  ITASK_CHECK(finalized_, "QuantizedVit: not finalized");
  int64_t bytes = 0;
  for_each_linear(layers_, [&](const auto& layer) {
    bytes += static_cast<int64_t>(layer.quantized_weight().data.size());
  });
  return bytes;
}

}  // namespace itask::quant
