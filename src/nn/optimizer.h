// First-order optimizers over flat parameter lists.
#pragma once

#include <vector>

#include "nn/module.h"

namespace itask::nn {

/// Common optimizer interface: step() applies accumulated gradients. The
/// optimizer owns its parameters' gradient buffers for its lifetime: the
/// constructor allocates them zeroed and the destructor releases them, so
/// a gradient outlives no fit.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params);
  virtual ~Optimizer();

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  virtual void step() = 0;
  void zero_grad();

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 protected:
  std::vector<Parameter*> params_;
  float lr_ = 1e-3f;
};

/// SGD with classical momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);
  void step() override;

 private:
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);
  void step() override;

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

/// Clips the global L2 norm of all gradients to `max_norm`; returns the norm
/// before clipping.
float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm);

}  // namespace itask::nn
