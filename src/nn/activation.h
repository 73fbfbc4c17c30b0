// The GELU activation layer (caches the forward input for its backward,
// which consumes it; an empty grad_out drops it and returns empty, as in
// Linear::backward).
#pragma once

#include "nn/module.h"

namespace itask::nn {

class Gelu : public Module {
 public:
  Tensor forward(const Tensor& input);
  Tensor backward(const Tensor& grad_out);

 private:
  Tensor cached_input_;
};

}  // namespace itask::nn
