#include "nn/embedding.h"

#include <utility>

#include "nn/init.h"
#include "tensor/ops.h"

namespace itask::nn {

Tensor patchify(const Tensor& images, int64_t patch) {
  ITASK_CHECK(images.ndim() == 4, "patchify: need [B, C, H, W]");
  const int64_t b = images.dim(0), c = images.dim(1), h = images.dim(2),
                w = images.dim(3);
  ITASK_CHECK(h % patch == 0 && w % patch == 0,
              "patchify: image not divisible by patch size");
  const int64_t gh = h / patch, gw = w / patch;
  const int64_t t = gh * gw;
  const int64_t pv = c * patch * patch;
  Tensor out({b, t, pv});
  auto in = images.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t gy = 0; gy < gh; ++gy)
      for (int64_t gx = 0; gx < gw; ++gx) {
        float* dst = o.data() + (bi * t + gy * gw + gx) * pv;
        for (int64_t ci = 0; ci < c; ++ci)
          for (int64_t py = 0; py < patch; ++py) {
            const float* src = in.data() + ((bi * c + ci) * h +
                                            (gy * patch + py)) *
                                               w +
                               gx * patch;
            std::copy(src, src + patch,
                      dst + (ci * patch + py) * patch);
          }
      }
  return out;
}

Tensor unpatchify_grad(const Tensor& grad_patches, int64_t patch, int64_t c,
                       int64_t h, int64_t w) {
  ITASK_CHECK(grad_patches.ndim() == 3, "unpatchify_grad: need [B, T, pv]");
  const int64_t b = grad_patches.dim(0);
  const int64_t gh = h / patch, gw = w / patch;
  const int64_t t = gh * gw;
  const int64_t pv = c * patch * patch;
  ITASK_CHECK(grad_patches.dim(1) == t && grad_patches.dim(2) == pv,
              "unpatchify_grad: shape mismatch");
  Tensor out({b, c, h, w});
  auto in = grad_patches.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t gy = 0; gy < gh; ++gy)
      for (int64_t gx = 0; gx < gw; ++gx) {
        const float* src = in.data() + (bi * t + gy * gw + gx) * pv;
        for (int64_t ci = 0; ci < c; ++ci)
          for (int64_t py = 0; py < patch; ++py) {
            float* dst = o.data() + ((bi * c + ci) * h + (gy * patch + py)) *
                             w +
                         gx * patch;
            const float* s = src + (ci * patch + py) * patch;
            for (int64_t px = 0; px < patch; ++px) dst[px] += s[px];
          }
      }
  return out;
}

Tensor assemble_tokens(const Tensor& projected, const Tensor& cls,
                       const Tensor& pos) {
  ITASK_CHECK(projected.ndim() == 3, "assemble_tokens: need [B, T, D]");
  Tensor out = Tensor::uninitialized(
      {projected.dim(0), projected.dim(1) + 1, projected.dim(2)});
  assemble_tokens(projected, cls, pos, out);
  return out;
}

void assemble_tokens(const Tensor& projected, const Tensor& cls,
                     const Tensor& pos, Tensor& out) {
  ITASK_CHECK(projected.ndim() == 3, "assemble_tokens: need [B, T, D]");
  const int64_t b = projected.dim(0), t = projected.dim(1),
                d = projected.dim(2);
  ITASK_CHECK(cls.shape() == (Shape{d}) && pos.shape() == (Shape{t + 1, d}),
              "assemble_tokens: cls/pos shape mismatch");
  ITASK_CHECK(out.shape() == (Shape{b, t + 1, d}),
              "assemble_tokens: out must be [B, T+1, D]");
  auto o = out.data();
  auto pd = projected.data();
  auto cd = cls.data();
  auto pp = pos.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    float* base = o.data() + bi * (t + 1) * d;
    for (int64_t j = 0; j < d; ++j) base[j] = cd[j] + pp[j];
    for (int64_t ti = 0; ti < t; ++ti) {
      const float* src = pd.data() + (bi * t + ti) * d;
      float* dst = base + (ti + 1) * d;
      const float* prow = pp.data() + (ti + 1) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] = src[j] + prow[j];
    }
  }
}

Tensor patch_tokens(const Tensor& tokens) {
  ITASK_CHECK(tokens.ndim() == 3 && tokens.dim(1) >= 1,
              "patch_tokens: need [B, T+1, D]");
  const int64_t b = tokens.dim(0), t = tokens.dim(1) - 1, d = tokens.dim(2);
  Tensor out({b, t, d});
  auto in = tokens.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* src = in.data() + (bi * (t + 1) + 1) * d;
    std::copy(src, src + t * d, o.data() + bi * t * d);
  }
  return out;
}

PatchEmbed::PatchEmbed(int64_t image_size, int64_t patch_size,
                       int64_t channels, int64_t dim, Rng& rng)
    : image_size_(image_size),
      patch_size_(patch_size),
      channels_(channels),
      dim_(dim),
      tokens_((image_size / patch_size) * (image_size / patch_size)),
      proj_(channels * patch_size * patch_size, dim, rng),
      cls_(register_parameter("cls", trunc_normal({dim}, 0.02f, rng))),
      pos_(register_parameter(
          "pos", trunc_normal({tokens_ + 1, dim}, 0.02f, rng))) {
  ITASK_CHECK(image_size % patch_size == 0,
              "PatchEmbed: image_size % patch_size != 0");
  register_child("proj", proj_);
}

Tensor PatchEmbed::forward(const Tensor& images) {
  ITASK_CHECK(images.ndim() == 4 && images.dim(1) == channels_ &&
                  images.dim(2) == image_size_ && images.dim(3) == image_size_,
              "PatchEmbed: unexpected image shape");
  cached_batch_ = images.dim(0);
  return assemble_tokens(proj_.forward(patchify(images, patch_size_)),
                         cls_.value, pos_.value);
}

Tensor PatchEmbed::backward(const Tensor& grad_tokens) {
  ITASK_CHECK(cached_batch_ > 0, "PatchEmbed: backward before forward");
  const int64_t b = std::exchange(cached_batch_, 0);  // backward consumes it
  ITASK_CHECK(grad_tokens.ndim() == 3 && grad_tokens.dim(0) == b &&
                  grad_tokens.dim(1) == tokens_ + 1 &&
                  grad_tokens.dim(2) == dim_,
              "PatchEmbed: grad shape mismatch");
  auto g = grad_tokens.data();
  auto dcls = cls_.grad_buffer().data();
  auto dpos = pos_.grad_buffer().data();
  Tensor d_proj({b, tokens_, dim_});
  auto dp = d_proj.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* base = g.data() + bi * (tokens_ + 1) * dim_;
    for (int64_t j = 0; j < dim_; ++j) {
      dcls[j] += base[j];
      dpos[j] += base[j];
    }
    for (int64_t ti = 0; ti < tokens_; ++ti) {
      const float* src = base + (ti + 1) * dim_;
      float* dst = dp.data() + (bi * tokens_ + ti) * dim_;
      float* prow = dpos.data() + (ti + 1) * dim_;
      for (int64_t j = 0; j < dim_; ++j) {
        dst[j] = src[j];
        prow[j] += src[j];
      }
    }
  }
  Tensor d_patches = proj_.backward(d_proj);  // [B, T, pv]
  return unpatchify_grad(d_patches, patch_size_, channels_, image_size_,
                         image_size_);
}

}  // namespace itask::nn
