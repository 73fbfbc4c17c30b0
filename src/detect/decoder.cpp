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
  ITASK_CHECK(output.class_logits.shape() == (Shape{b, t, c}) &&
                  output.attr_logits.shape() == (Shape{b, t, a}),
              "decode: class/attribute logits must be [B, T, ·]");
  const float cell_px = static_cast<float>(options.image_size) /
                        static_cast<float>(options.grid);

  // The class softmax and attribute sigmoids run only for the cells that
  // pass the objectness threshold, each on its own row: the same arithmetic
  // softmax_lastdim and sigmoid run per row, so the same bits.
  const float* class_logits = output.class_logits.data().data();
  const float* attr_logits = output.attr_logits.data().data();
  std::vector<std::vector<Detection>> result(static_cast<size_t>(b));
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t cell = 0; cell < t; ++cell) {
      const float logit = obj.at({bi, cell, 0});
      const float p_obj = 1.0f / (1.0f + std::exp(-logit));
      // Written so a NaN logit is rejected, not kept: a NaN confidence
      // would break nms's strict weak ordering.
      if (!(p_obj >= options.objectness_threshold)) continue;
      const int64_t row = bi * t + cell;
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
        d.attr_probs[j] = 1.0f / (1.0f + std::exp(-attr_logits[row * a + j]));
      const float* cls_row = class_logits + row * c;
      d.class_probs = Tensor({c}, std::vector<float>(cls_row, cls_row + c));
      if (c > 0) ops::softmax_row(d.class_probs.data().data(), c);
      float best = -1.0f;
      for (int64_t j = 0; j < c; ++j) {
        const float p = d.class_probs[j];
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
