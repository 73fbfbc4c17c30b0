#include "quant/qvit.h"

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "tensor/ops.h"

namespace itask::quant {

namespace {

Tensor fetch(const io::StateDict& state, const std::string& key) {
  const auto it = state.find(key);
  ITASK_CHECK(it != state.end(), "QuantizedVit: missing key " + key);
  return it->second;
}

Tensor fetch_or_empty(const io::StateDict& state, const std::string& key) {
  const auto it = state.find(key);
  return it != state.end() ? it->second : Tensor();
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
  patch_proj_ = QLinearLayer(fetch(state, "embed.proj.weight"),
                             fetch_or_empty(state, "embed.proj.bias"),
                             options_);
  cls_ = fetch(state, "embed.cls");
  pos_ = fetch(state, "embed.pos");
  for (int64_t i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.block" + std::to_string(i) + ".";
    Block blk;
    blk.ln1 = {fetch(state, p + "ln1.gamma"), fetch(state, p + "ln1.beta")};
    blk.ln2 = {fetch(state, p + "ln2.gamma"), fetch(state, p + "ln2.beta")};
    blk.qkv = QLinearLayer(fetch(state, p + "attn.qkv.weight"),
                           fetch_or_empty(state, p + "attn.qkv.bias"),
                           options_);
    blk.proj = QLinearLayer(fetch(state, p + "attn.proj.weight"),
                            fetch_or_empty(state, p + "attn.proj.bias"),
                            options_);
    blk.fc1 = QLinearLayer(fetch(state, p + "fc1.weight"),
                           fetch_or_empty(state, p + "fc1.bias"), options_);
    blk.fc2 = QLinearLayer(fetch(state, p + "fc2.weight"),
                           fetch_or_empty(state, p + "fc2.bias"), options_);
    blocks_.push_back(std::move(blk));
  }
  final_ln_ = {fetch(state, "encoder.final_ln.gamma"),
               fetch(state, "encoder.final_ln.beta")};
  obj_head_ = QLinearLayer(fetch(state, "obj_head.weight"),
                           fetch_or_empty(state, "obj_head.bias"), options_);
  cls_head_ = QLinearLayer(fetch(state, "cls_head.weight"),
                           fetch_or_empty(state, "cls_head.bias"), options_);
  attr_head_ = QLinearLayer(fetch(state, "attr_head.weight"),
                            fetch_or_empty(state, "attr_head.bias"), options_);
  box_fc1_ = QLinearLayer(fetch(state, "box_fc1.weight"),
                          fetch_or_empty(state, "box_fc1.bias"), options_);
  box_fc2_ = QLinearLayer(fetch(state, "box_fc2.weight"),
                          fetch_or_empty(state, "box_fc2.bias"), options_);
  rel_head_ = QLinearLayer(fetch(state, "rel_head.weight"),
                           fetch_or_empty(state, "rel_head.bias"), options_);
}

QuantizedVit QuantizedVit::from_model(vit::VitModel& model,
                                      QuantOptions options) {
  return QuantizedVit(model.config(), model.state_dict(), options);
}

template <typename Self, typename Apply>
vit::VitOutput QuantizedVit::run(Self& self, const Tensor& images,
                                 Apply&& apply) {
  Tensor x = nn::assemble_tokens(
      apply(self.patch_proj_, nn::patchify(images, self.config_.patch_size)),
      self.cls_, self.pos_);  // [B, T+1, D]
  for (auto& blk : self.blocks_) {
    Tensor normed = nn::layernorm_affine(x, blk.ln1.gamma, blk.ln1.beta);
    Tensor ctx =
        nn::attention_core(apply(blk.qkv, normed), self.config_.heads).ctx;
    Tensor attn_out = apply(blk.proj, ctx);
    x = ops::add(x, attn_out);
    Tensor normed2 = nn::layernorm_affine(x, blk.ln2.gamma, blk.ln2.beta);
    Tensor mlp = apply(blk.fc2, ops::gelu(apply(blk.fc1, normed2)));
    x = ops::add(x, mlp);
  }
  Tensor tokens =
      nn::layernorm_affine(x, self.final_ln_.gamma, self.final_ln_.beta);
  Tensor patch_feats = nn::patch_tokens(tokens);  // [B, T, D]
  vit::VitOutput out;
  out.objectness = apply(self.obj_head_, patch_feats);
  out.class_logits = apply(self.cls_head_, patch_feats);
  out.attr_logits = apply(self.attr_head_, patch_feats);
  out.box_deltas =
      apply(self.box_fc2_, ops::gelu(apply(self.box_fc1_, patch_feats)));
  out.relevance = apply(self.rel_head_, patch_feats);
  out.features = std::move(tokens);
  return out;
}

void QuantizedVit::calibrate(const Tensor& images) {
  ITASK_CHECK(!finalized_, "QuantizedVit: calibrate after finalize");
  (void)run(*this, images, [](QLinearLayer& layer, const Tensor& x) {
    return layer.forward_calibrating(x);
  });
}

void QuantizedVit::finalize() {
  ITASK_CHECK(!finalized_, "QuantizedVit: double finalize");
  patch_proj_.finalize(options_);
  for (Block& blk : blocks_) {
    blk.qkv.finalize(options_);
    blk.proj.finalize(options_);
    blk.fc1.finalize(options_);
    blk.fc2.finalize(options_);
  }
  obj_head_.finalize(options_);
  cls_head_.finalize(options_);
  attr_head_.finalize(options_);
  box_fc1_.finalize(options_);
  box_fc2_.finalize(options_);
  rel_head_.finalize(options_);
  finalized_ = true;
}

vit::VitOutput QuantizedVit::forward(const Tensor& images) const {
  ITASK_CHECK(finalized_, "QuantizedVit: forward before finalize");
  return run(*this, images, [](const QLinearLayer& layer, const Tensor& x) {
    return layer.forward(x);
  });
}

int64_t QuantizedVit::quantized_weight_bytes() const {
  ITASK_CHECK(finalized_, "QuantizedVit: not finalized");
  int64_t bytes = static_cast<int64_t>(
      patch_proj_.quantized_weight().data.size());
  for (const Block& blk : blocks_) {
    bytes += static_cast<int64_t>(blk.qkv.quantized_weight().data.size());
    bytes += static_cast<int64_t>(blk.proj.quantized_weight().data.size());
    bytes += static_cast<int64_t>(blk.fc1.quantized_weight().data.size());
    bytes += static_cast<int64_t>(blk.fc2.quantized_weight().data.size());
  }
  bytes += static_cast<int64_t>(obj_head_.quantized_weight().data.size());
  bytes += static_cast<int64_t>(cls_head_.quantized_weight().data.size());
  bytes += static_cast<int64_t>(attr_head_.quantized_weight().data.size());
  bytes += static_cast<int64_t>(box_fc1_.quantized_weight().data.size());
  bytes += static_cast<int64_t>(box_fc2_.quantized_weight().data.size());
  bytes += static_cast<int64_t>(rel_head_.quantized_weight().data.size());
  return bytes;
}

}  // namespace itask::quant
