// Module / Parameter machinery for the explicit-backward neural-net layers.
//
// iTask deliberately avoids a tape autograd (DESIGN.md §6.1): a layer's
// forward caches what its backward pass needs, and `backward(grad_out)`
// consumes that cache and returns the gradient w.r.t. its input, so a
// second backward without a new forward throws. Parameters accumulate
// gradients in place; optimizers consume `parameters()`. Training state ends
// with training: caches die in the backward that reads them and gradient
// buffers with the optimizer that trains them, so a trained, loaded or
// never-trained model holds its weights and nothing else.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/io.h"
#include "tensor/tensor.h"

namespace itask::nn {

/// A trainable tensor together with its accumulated gradient. The gradient
/// buffer is empty until zero_grad(), a backward or an optimizer over the
/// parameter allocates it, and an optimizer releases it when destroyed.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)) {}

  /// The gradient buffer a backward adds into, allocated zeroed if missing.
  Tensor& grad_buffer() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
    return grad;
  }

  void zero_grad() { grad_buffer().fill(0.0f); }
};

/// Base class for layers and models. Owns its parameters; children are
/// non-owning references registered by the subclass constructor.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its children, in registration order.
  std::vector<Parameter*> parameters();

  /// Total number of trainable scalars.
  int64_t parameter_count();

  void zero_grad();

  /// Flattens parameters into a name->tensor map ("child.weight" style keys).
  io::StateDict state_dict() const;

  /// Loads values for every parameter present in `state`; missing or
  /// mismatched entries throw.
  void load_state_dict(const io::StateDict& state);

  /// Builds serving-time pre-packed weight caches in this module and every
  /// child (nn::Linear overrides; the default just recurses). Invoked by
  /// Framework::publish() on each model a DeploymentSnapshot captures. Call
  /// only once the weights are final: training does NOT invalidate the
  /// caches (the serving convention replaces model objects instead of
  /// retraining them — see CLAUDE.md). Idempotent and write-free once
  /// packed, so re-publishing an already-served model is thread-safe.
  virtual void prepack_for_serving();

 protected:
  /// Creates and owns a parameter; the returned reference is stable.
  Parameter& register_parameter(std::string name, Tensor init);

  /// Registers a child module (must outlive this module — typically a member).
  void register_child(std::string name, Module& child);

 private:
  struct Child {
    std::string name;
    Module* module;
  };

  std::vector<std::unique_ptr<Parameter>> params_;
  std::vector<Child> children_;
};

}  // namespace itask::nn
