#include "nn/optimizer.h"

#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace itask::nn {

Optimizer::Optimizer(std::vector<Parameter*> params)
    : params_(std::move(params)) {
  for (Parameter* p : params_) (void)p->grad_buffer();
}

Optimizer::~Optimizer() {
  for (Parameter* p : params_) p->grad = Tensor();
}

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  lr_ = lr;
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    auto w = p.value.data();
    auto g = p.grad.data();
    auto v = velocity_[i].data();
    for (size_t j = 0; j < w.size(); ++j) {
      float grad = g[j] + weight_decay_ * w[j];
      v[j] = momentum_ * v[j] + grad;
      w[j] -= lr_ * v[j];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

// Adam's update, written out as GCC compiled the plain expression at -O3
// -march=native, so trained weights keep their bits: m = fma(β1, m, (1−β1)·g),
// v = fma(β2, v, ((1−β2)·g)·g), q = (m/bc1) / (√(v/bc2) + ε) and
// w = fma(−lr, fma(wd, w, q), w). The 8-lane form repeats the scalar one op
// for op (division and square root round correctly in both); the scalar
// form runs the tail, and everything on builds without AVX2/FMA.
void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float b1 = beta1_, b2 = beta2_, eps = eps_, wd = weight_decay_;
  const float c1 = 1.0f - b1, c2 = 1.0f - b2, neg_lr = -lr_;
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    float* w = p.value.data().data();
    const float* g = p.grad.data().data();
    float* m = m_[i].data().data();
    float* v = v_[i].data().data();
    const int64_t n = p.value.numel();
    int64_t j = 0;
#if defined(__AVX2__) && defined(__FMA__)
    const __m256 b1v = _mm256_set1_ps(b1), b2v = _mm256_set1_ps(b2);
    const __m256 c1v = _mm256_set1_ps(c1), c2v = _mm256_set1_ps(c2);
    const __m256 bc1v = _mm256_set1_ps(bc1), bc2v = _mm256_set1_ps(bc2);
    const __m256 epsv = _mm256_set1_ps(eps), wdv = _mm256_set1_ps(wd);
    const __m256 neg_lrv = _mm256_set1_ps(neg_lr);
    for (; j + 8 <= n; j += 8) {
      const __m256 gj = _mm256_loadu_ps(g + j);
      const __m256 mj =
          _mm256_fmadd_ps(b1v, _mm256_loadu_ps(m + j), _mm256_mul_ps(c1v, gj));
      const __m256 vj =
          _mm256_fmadd_ps(b2v, _mm256_loadu_ps(v + j),
                          _mm256_mul_ps(_mm256_mul_ps(c2v, gj), gj));
      _mm256_storeu_ps(m + j, mj);
      _mm256_storeu_ps(v + j, vj);
      const __m256 q = _mm256_div_ps(
          _mm256_div_ps(mj, bc1v),
          _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vj, bc2v)), epsv));
      const __m256 wj = _mm256_loadu_ps(w + j);
      _mm256_storeu_ps(
          w + j, _mm256_fmadd_ps(neg_lrv, _mm256_fmadd_ps(wdv, wj, q), wj));
    }
#endif
    for (; j < n; ++j) {
      m[j] = std::fma(b1, m[j], c1 * g[j]);
      v[j] = std::fma(b2, v[j], (c2 * g[j]) * g[j]);
      const float q = (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
      w[j] = std::fma(neg_lr, std::fma(wd, w[j], q), w[j]);
    }
  }
}

float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm) {
  double total = 0.0;
  for (Parameter* p : params)
    for (float g : p->grad.data()) total += static_cast<double>(g) * g;
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params)
      for (float& g : p->grad.data()) g *= scale;
  }
  return norm;
}

}  // namespace itask::nn
