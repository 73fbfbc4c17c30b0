#include "nn/activation.h"

#include "tensor/ops.h"

namespace itask::nn {

Tensor Gelu::forward(const Tensor& input) {
  cached_input_ = input;
  return ops::gelu(input);
}

Tensor Gelu::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_input_.empty(), "Gelu: backward before forward");
  const Tensor input = std::move(cached_input_);  // backward consumes it
  if (grad_out.empty()) return {};  // no gradient reaches this layer
  return ops::gelu_grad(input, grad_out);
}

}  // namespace itask::nn
