#include "nn/activation.h"

#include "tensor/ops.h"

namespace itask::nn {

Tensor Gelu::forward(const Tensor& input) {
  cached_input_ = input;
  return ops::gelu(input);
}

Tensor Gelu::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_input_.empty(), "Gelu: backward before forward");
  return ops::gelu_grad(cached_input_, grad_out);
}

}  // namespace itask::nn
