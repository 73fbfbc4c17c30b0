// Patch embedding front-end for the ViT: image -> patch tokens + CLS token
// + learned positional embedding.
#pragma once

#include "nn/linear.h"
#include "nn/module.h"

namespace itask::nn {

/// Rearranges [B, C, H, W] into flattened patches [B, T, C*P*P] where
/// T = (H/P)*(W/P). Exposed for tests and for the quantized runtime.
Tensor patchify(const Tensor& images, int64_t patch);

/// Scatters patch gradients [B, T, C*P*P] back into image layout [B, C, H, W].
Tensor unpatchify_grad(const Tensor& grad_patches, int64_t patch, int64_t c,
                       int64_t h, int64_t w);

/// Token assembly: projected patches [B, T, D] -> tokens [B, T+1, D], with
/// token 0 = cls + pos[0] and token t+1 = patch t + pos[t+1]. `cls` is [D],
/// `pos` is [T+1, D]. The one definition shared by PatchEmbed::forward and
/// the serving graph (vit/graph.h).
Tensor assemble_tokens(const Tensor& projected, const Tensor& cls,
                       const Tensor& pos);

/// assemble_tokens writing every element of a caller-allocated `out`
/// [B, T+1, D]: how the serving graph allocates the residual stream before
/// the patch embedding's temporaries, so they can be released under it.
void assemble_tokens(const Tensor& projected, const Tensor& cls,
                     const Tensor& pos, Tensor& out);

/// Inverse split of assemble_tokens' layout: drops the CLS token of an
/// encoder output [B, T+1, D], returning the patch tokens [B, T, D] that
/// the detection heads read.
Tensor patch_tokens(const Tensor& tokens);

/// Linear patch projection with a learned CLS token and positional embedding.
/// Output is [B, T+1, dim]; token 0 is the CLS token.
class PatchEmbed : public Module {
 public:
  PatchEmbed(int64_t image_size, int64_t patch_size, int64_t channels,
             int64_t dim, Rng& rng);

  Tensor forward(const Tensor& images);

  /// Accumulates parameter gradients. Returns the gradient w.r.t. the input
  /// images (rarely needed, but kept for completeness / gradcheck).
  Tensor backward(const Tensor& grad_tokens);

  int64_t tokens() const { return tokens_; }  // excludes CLS
  int64_t dim() const { return dim_; }
  int64_t patch_size() const { return patch_size_; }
  const Linear& proj() const { return proj_; }
  const Tensor& cls() const { return cls_.value; }
  const Tensor& pos() const { return pos_.value; }

 private:
  int64_t image_size_;
  int64_t patch_size_;
  int64_t channels_;
  int64_t dim_;
  int64_t tokens_;
  Linear proj_;
  Parameter& cls_;   // [dim]
  Parameter& pos_;   // [tokens+1, dim]
  int64_t cached_batch_ = 0;
};

}  // namespace itask::nn
