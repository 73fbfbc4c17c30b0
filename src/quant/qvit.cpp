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

/// Calls f on every linear layer of `layers` (a VitLayers), const or not.
template <typename Layers, typename F>
void for_each_linear(Layers& layers, F&& f) {
  f(layers.patch_proj);
  for (auto& blk : layers.blocks) {
    f(blk.qkv);
    f(blk.proj);
    f(blk.fc1);
    f(blk.fc2);
  }
  for (auto* head : {&layers.obj_head, &layers.cls_head, &layers.attr_head,
                     &layers.box_fc1, &layers.box_fc2, &layers.rel_head})
    f(*head);
}

}  // namespace

QLinearLayer::QLinearLayer(Tensor weight, Tensor bias,
                           const QuantOptions& options)
    : fp32_weight_(std::move(weight)),
      bias_(std::move(bias)),
      calibrator_(make_calibrator(options.method)) {
  ITASK_CHECK(fp32_weight_.ndim() == 2, "QLinearLayer: weight must be 2-D");
}

Tensor QLinearLayer::forward_calibrating(const Tensor& x) {
  ITASK_CHECK(calibrator_ != nullptr,
              "QLinearLayer: calibration already finalized");
  calibrator_->observe(x);
  Tensor y = ops::matmul_bt(
      x.reshape({x.numel() / fp32_weight_.dim(1), fp32_weight_.dim(1)}),
      fp32_weight_);
  if (!bias_.empty()) y = ops::add_rowwise(y, bias_);
  Shape out_shape = x.shape();
  out_shape.back() = fp32_weight_.dim(0);
  return y.reshape(std::move(out_shape));
}

Tensor QLinearLayer::forward(const Tensor& x) const {
  ITASK_CHECK(finalized_, "QLinearLayer: forward before finalize");
  return qlinear_forward(x, act_, qweight_, bias_.empty() ? nullptr : &bias_);
}

void QLinearLayer::finalize(const QuantOptions& options) {
  ITASK_CHECK(calibrator_ != nullptr, "QLinearLayer: double finalize");
  act_ = calibrator_->finalize().with_bits(options.activation_bits);
  qweight_ = quantize_weight_packed(fp32_weight_, options.granularity,
                                    options.weight_bits);
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
  layers_.obj_head = linear(state, "obj_head", options_);
  layers_.cls_head = linear(state, "cls_head", options_);
  layers_.attr_head = linear(state, "attr_head", options_);
  layers_.box_fc1 = linear(state, "box_fc1", options_);
  layers_.box_fc2 = linear(state, "box_fc2", options_);
  layers_.rel_head = linear(state, "rel_head", options_);
}

QuantizedVit QuantizedVit::from_model(vit::VitModel& model,
                                      QuantOptions options) {
  return QuantizedVit(model.config(), model.state_dict(), options);
}

void QuantizedVit::calibrate(const Tensor& images) {
  ITASK_CHECK(!finalized_, "QuantizedVit: calibrate after finalize");
  (void)vit::run_graph(config_, layers_, images,
                       [](QLinearLayer& layer, const Tensor& x) {
                         return layer.forward_calibrating(x);
                       });
}

void QuantizedVit::finalize() {
  ITASK_CHECK(!finalized_, "QuantizedVit: double finalize");
  for_each_linear(layers_,
                  [&](QLinearLayer& layer) { layer.finalize(options_); });
  finalized_ = true;
}

vit::VitOutput QuantizedVit::forward(const Tensor& images) const {
  ITASK_CHECK(finalized_, "QuantizedVit: forward before finalize");
  return vit::run_graph(config_, layers_, images,
                        [](const QLinearLayer& layer, const Tensor& x) {
                          return layer.forward(x);
                        });
}

int64_t QuantizedVit::quantized_weight_bytes() const {
  ITASK_CHECK(finalized_, "QuantizedVit: not finalized");
  int64_t bytes = 0;
  for_each_linear(layers_, [&](const QLinearLayer& layer) {
    bytes += static_cast<int64_t>(layer.quantized_weight().data.size());
  });
  return bytes;
}

}  // namespace itask::quant
