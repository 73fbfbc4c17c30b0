// Bitwise tensor equality for the tests that pin a kernel to its oracle.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/tensor.h"

namespace itask {

/// Same shape and the same bits in every element; NaN matches NaN of any
/// payload.
inline ::testing::AssertionResult same_bits(const Tensor& got,
                                            const Tensor& want) {
  if (got.shape() != want.shape())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float g = got[i], w = want[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof g) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << g << " vs " << w;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace itask
