#include "detect/decoder.h"

#include <cmath>

#include "data/dataset.h"
#include "tensor/ops.h"

namespace itask::detect {

std::vector<std::vector<Detection>> decode(const vit::VitOutput& output,
                                            const DecoderOptions& options) {
  const Tensor& obj = output.objectness;  // [B, T, 1]
  ITASK_CHECK(obj.ndim() == 3, "decode: unexpected objectness shape");
  const int64_t b = obj.dim(0);
  const int64_t t = obj.dim(1);
  ITASK_CHECK(t == options.grid * options.grid,
              "decode: grid does not match token count");
  const int64_t c = output.class_logits.dim(2);
  const int64_t a = output.attr_logits.dim(2);
  const float cell_px = static_cast<float>(options.image_size) /
                        static_cast<float>(options.grid);

  Tensor class_probs = ops::softmax_lastdim(output.class_logits);
  Tensor attr_probs = ops::sigmoid(output.attr_logits);

  std::vector<std::vector<Detection>> result(static_cast<size_t>(b));
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t cell = 0; cell < t; ++cell) {
      const float logit = obj.at({bi, cell, 0});
      const float p_obj = 1.0f / (1.0f + std::exp(-logit));
      // Written so a NaN logit is rejected, not kept: a NaN confidence
      // would break nms's strict weak ordering.
      if (!(p_obj >= options.objectness_threshold)) continue;
      Detection d;
      d.cell = cell;
      d.objectness = p_obj;
      d.confidence = p_obj;  // pipeline refines with the task confidence
      float delta[4];
      for (int64_t j = 0; j < 4; ++j)
        delta[j] = output.box_deltas.at({bi, cell, j});
      d.box = data::decode_box(delta, cell, options.grid, cell_px);
      d.attr_probs = Tensor({a});
      for (int64_t j = 0; j < a; ++j)
        d.attr_probs[j] = attr_probs.at({bi, cell, j});
      d.class_probs = Tensor({c});
      float best = -1.0f;
      for (int64_t j = 0; j < c; ++j) {
        const float p = class_probs.at({bi, cell, j});
        d.class_probs[j] = p;
        if (p > best) {
          best = p;
          d.predicted_class = j;
        }
      }
      result[static_cast<size_t>(bi)].push_back(std::move(d));
    }
  }
  return result;
}

}  // namespace itask::detect
