// Unit tests for the Tensor class: construction, indexing, reshaping,
// sub-tensor access, and precondition checking — plus the allocator seam
// (Shape SBO, Arena/ArenaScope/ScratchVec, Tensor::borrow).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace itask {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
}

TEST(Tensor, ZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, ExplicitValues) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

TEST(Tensor, ValueCountMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, ElementCountOverflowThrows) {
  // 2^32 · 2^32 does not fit int64: refused, not wrapped to 0.
  EXPECT_THROW(Tensor({int64_t{1} << 32, int64_t{1} << 32}),
               std::invalid_argument);
}

TEST(Tensor, FromValues) {
  Tensor t = Tensor::from_values({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.ndim(), 1);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t[2], 3.0f);
}

TEST(Tensor, FromRows) {
  Tensor t = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 1}), 6.0f);
}

TEST(Tensor, FromRowsRaggedThrows) {
  EXPECT_THROW(Tensor::from_rows({{1.0f, 2.0f}, {3.0f}}),
               std::invalid_argument);
}

TEST(Tensor, MultiDimAccess) {
  Tensor t({2, 3, 4});
  t.at({1, 2, 3}) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
}

TEST(Tensor, IndexRankMismatchThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({1}), std::invalid_argument);
  EXPECT_THROW(t.at({1, 2, 0}), std::invalid_argument);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW(t[6], std::invalid_argument);
  EXPECT_THROW(t[-1], std::invalid_argument);
}

TEST(Tensor, Reshape) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.at({2, 1}), 5.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, RowAndIndex) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r1 = t.row(1);
  EXPECT_EQ(r1.shape(), (Shape{3}));
  EXPECT_EQ(r1[0], 3.0f);
  Tensor t3({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor sub = t3.index(1);
  EXPECT_EQ(sub.shape(), (Shape{2, 2}));
  EXPECT_EQ(sub.at({1, 1}), 7.0f);
}

TEST(Tensor, SetIndex) {
  Tensor t({3, 2});
  t.set_index(1, Tensor({2}, {9.0f, 8.0f}));
  EXPECT_EQ(t.at({1, 0}), 9.0f);
  EXPECT_EQ(t.at({1, 1}), 8.0f);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_THROW(t.set_index(0, Tensor({3})), std::invalid_argument);
  EXPECT_THROW(t.set_index(3, Tensor({2})), std::invalid_argument);
}

TEST(Tensor, Fill) {
  Tensor t({2, 2});
  t.fill(3.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.0f);
}

TEST(Tensor, Allclose) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f + 1e-6f, 2.0f - 1e-6f});
  EXPECT_TRUE(a.allclose(b));
  EXPECT_FALSE(a.allclose(Tensor({2}, {1.1f, 2.0f})));
  EXPECT_FALSE(a.allclose(Tensor({3})));
}

TEST(Tensor, NegativeDimThrows) {
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ToStringTruncates) {
  Tensor t({20}, 1.0f);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Tensor[20]"), std::string::npos);
  EXPECT_NE(s.find("…"), std::string::npos);
}

// ---------------------------------------------------------------- shape ----

TEST(ShapeSbo, VectorishSurface) {
  Shape s{3, 24, 24};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(s.back(), 24);
  s.push_back(7);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.back(), 7);
  // Single-value insert at the front — the detect() batching idiom.
  s.insert(s.begin(), 1);
  EXPECT_EQ(s, (Shape{1, 3, 24, 24, 7}));
  // Range insert at the end — the ops::stack idiom.
  const Shape tail{5, 6};
  Shape t{9};
  t.insert(t.end(), tail.begin(), tail.end());
  EXPECT_EQ(t, (Shape{9, 5, 6}));
  // Iterator-range construction drops the leading dim like index() does.
  const Shape sub(s.begin() + 1, s.end());
  EXPECT_EQ(sub, (Shape{3, 24, 24, 7}));
}

TEST(ShapeSbo, RankOverflowThrows) {
  Shape s;
  for (int64_t i = 0; i < Shape::kMaxRank; ++i) s.push_back(i);
  EXPECT_THROW(s.push_back(99), std::invalid_argument);
  Shape t{1, 2};
  const Shape big{1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(t.insert(t.end(), big.begin(), big.end()),
               std::invalid_argument);
}

// ---------------------------------------------------------------- arena ----

TEST(Arena, BumpAllocatesAlignedAndAccountsRounded) {
  Arena a(1024);
  EXPECT_EQ(a.capacity(), 1024);
  void* p = a.allocate(1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlign, 0u);
  // Accounting rounds every allocation up to kAlign in used() too.
  EXPECT_EQ(a.used(), Arena::kAlign);
  a.allocate(65);  // rounds to 128
  EXPECT_EQ(a.used(), Arena::kAlign + 128);
  EXPECT_EQ(a.overflow_allocs(), 0);
  EXPECT_EQ(a.allocate(0), nullptr);
  EXPECT_EQ(a.used(), Arena::kAlign + 128);  // zero-byte asks are free
  a.reset();
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(a.high_water(), Arena::kAlign + 128);
}

TEST(Arena, ZeroCapacityProbeMeasuresExactRequiredCapacity) {
  // The plan_workspace() measurement rule: run the call sequence over a
  // zero-capacity arena (everything overflows), read used(), and an arena of
  // exactly that capacity serves the same sequence overflow-free.
  const auto sequence = [](Arena& a) {
    a.allocate(40);
    a.allocate(100);
    a.allocate(64);
  };
  Arena probe(0);
  sequence(probe);
  EXPECT_EQ(probe.overflow_allocs(), 3);
  const int64_t required = probe.used();
  EXPECT_EQ(required, 64 + 128 + 64);
  Arena sized(required);
  sequence(sized);
  EXPECT_EQ(sized.overflow_allocs(), 0);
  EXPECT_EQ(sized.used(), required);
  // One byte less and the sequence overflows.
  Arena tight(required - 1);  // rounds up to `required` — still fits
  sequence(tight);
  EXPECT_EQ(tight.overflow_allocs(), 0);
  Arena small(required - Arena::kAlign);
  sequence(small);
  EXPECT_GT(small.overflow_allocs(), 0);
  EXPECT_EQ(small.used(), required);  // accounting unaffected by overflow
}

TEST(Arena, OverflowBlocksAreUsableAndFreedOnReset) {
  Arena a(64);
  float* fits = static_cast<float*>(a.allocate(64));
  float* spills = static_cast<float*>(a.allocate(256));
  ASSERT_NE(fits, nullptr);
  ASSERT_NE(spills, nullptr);
  std::memset(spills, 0, 256);
  spills[0] = 7.0f;
  EXPECT_EQ(a.overflow_allocs(), 1);
  a.reset();  // frees the overflow block (ASan would flag a leak/UAF)
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(a.overflow_allocs(), 1);  // cumulative by design
}

TEST(Arena, GrowRequiresEmptyAndPreservesNothing) {
  Arena a(64);
  a.allocate(32);
  EXPECT_THROW(a.grow(1024), std::invalid_argument);
  a.reset();
  a.grow(1024);
  EXPECT_GE(a.capacity(), 1024);
  a.grow(64);  // no-op shrink request
  EXPECT_GE(a.capacity(), 1024);
  float* p = static_cast<float*>(a.allocate(512));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.overflow_allocs(), 0);
}

TEST(Arena, ReleaseRewindsToTheMarkAndReusesItsMemory) {
  Arena a(1024);
  void* kept = a.allocate(64);
  const Arena::Mark m = a.mark();
  void* first = a.allocate(100);  // rounds to 128
  a.allocate(64);
  EXPECT_EQ(a.used(), 64 + 128 + 64);
  a.release(m);
  EXPECT_EQ(a.used(), 64);
  EXPECT_EQ(a.peak(), 64 + 128 + 64);  // the peak survives the release
  // The bump pointer rewound: the next allocation reuses the released
  // bytes, and what was allocated before the mark is untouched.
  EXPECT_EQ(a.allocate(32), first);
  EXPECT_NE(kept, first);
  EXPECT_EQ(a.used(), 128);
  a.reset();
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(a.peak(), 0);  // peak() is per reset…
  EXPECT_EQ(a.high_water(), 64 + 128 + 64);  // …high_water() is not
}

TEST(Arena, ReleaseFreesOverflowBlocksTakenSinceTheMark) {
  Arena a(64);
  float* fits = static_cast<float*>(a.allocate(64));
  float* before = static_cast<float*>(a.allocate(128));  // spills
  const Arena::Mark m = a.mark();
  float* spilled = static_cast<float*>(a.allocate(256));
  ASSERT_NE(fits, nullptr);
  ASSERT_NE(spilled, nullptr);
  std::memset(spilled, 0, 256);
  EXPECT_EQ(a.overflow_allocs(), 2);
  a.release(m);  // frees `spilled` only (LeakSanitizer would flag a leak)
  EXPECT_EQ(a.used(), 64 + 128);
  before[31] = 1.0f;  // the block taken before the mark is still live
  EXPECT_EQ(before[31], 1.0f);
  a.allocate(256);  // spills again: the buffer is still full
  EXPECT_EQ(a.overflow_allocs(), 3);
  a.reset();
  EXPECT_EQ(a.used(), 0);
}

TEST(Arena, ZeroCapacityProbePeakServesTheSequenceOverflowFree) {
  // The plan_workspace() measurement rule with marks: a probe over a
  // zero-capacity arena reads peak(), the largest live footprint, and an
  // arena of exactly that capacity serves the same sequence with no
  // overflow — however much more the sequence allocates in total.
  const auto sequence = [](Arena& a) {
    a.allocate(40);  // lives throughout, like the residual stream
    for (int block = 0; block < 3; ++block) {
      const Arena::Mark m = a.mark();
      a.allocate(100);
      {
        const Arena::Mark inner = a.mark();
        a.allocate(200);  // a call's scratch
        a.release(inner);
      }
      a.allocate(64);
      a.release(m);
    }
    a.allocate(64);
  };
  Arena probe(0);
  sequence(probe);
  const int64_t required = probe.peak();
  EXPECT_EQ(required, 64 + 128 + 256);  // far below the 1472 B total
  EXPECT_EQ(probe.used(), 64 + 64);
  Arena sized(required);
  sequence(sized);
  EXPECT_EQ(sized.overflow_allocs(), 0);
  EXPECT_EQ(sized.peak(), required);
  Arena small(required - Arena::kAlign);
  sequence(small);
  EXPECT_GT(small.overflow_allocs(), 0);
  EXPECT_EQ(small.peak(), required);  // accounting unaffected by overflow
}

TEST(ArenaMark, ReleasesTheBoundArenaAndIsANoOpWithoutOne) {
  Arena a(4096);
  {
    ArenaScope scope(a);
    const Tensor stream({16}, 1.0f);
    {
      const ArenaMark mark;
      const Tensor temp({32}, 2.0f);
      ScratchVec<int32_t> panel(100);
      EXPECT_EQ(a.used(), 64 + 128 + 448);
    }
    EXPECT_EQ(a.used(), 64);
    EXPECT_EQ(stream[15], 1.0f);
  }
  // No scope bound: heap tensors, and the mark leaves the arena alone.
  const Tensor heap({8}, 3.0f);
  {
    const ArenaMark mark;
    const Tensor temp({8}, 4.0f);
  }
  EXPECT_EQ(a.used(), 64);
  EXPECT_EQ(heap[7], 3.0f);
}

TEST(Tensor, UninitializedHasTheShapeAndArenaStorage) {
  Arena a(4096);
  ArenaScope scope(a);
  Tensor t = Tensor::uninitialized({3, 5});
  EXPECT_EQ(t.shape(), (Shape{3, 5}));
  EXPECT_EQ(t.numel(), 15);
  EXPECT_EQ(a.used(), 64);
  t.fill(0.5f);
  EXPECT_EQ(t[14], 0.5f);
}

#if defined(__SANITIZE_ADDRESS__)
// Under AddressSanitizer the arena poisons what a mark releases: a tensor
// that outlives its mark reads poisoned memory, and ASan reports it.
TEST(ArenaDeathTest, ReadThroughATensorThatOutlivedItsMarkIsReported) {
  EXPECT_DEATH(
      {
        Arena a(4096);
        ArenaScope scope(a);
        Tensor escaped;
        {
          const ArenaMark mark;
          escaped = Tensor({16}, 1.0f);
        }
        volatile float v = escaped[3];
        (void)v;
      },
      "use-after-poison");
}
#endif

TEST(ArenaScope, BindsPerThreadAndNests) {
  EXPECT_EQ(ArenaScope::current(), nullptr);
  Arena outer(4096), inner(4096);
  {
    ArenaScope s1(outer);
    EXPECT_EQ(ArenaScope::current(), &outer);
    {
      ArenaScope s2(inner);
      EXPECT_EQ(ArenaScope::current(), &inner);
    }
    EXPECT_EQ(ArenaScope::current(), &outer);
  }
  EXPECT_EQ(ArenaScope::current(), nullptr);
}

TEST(ArenaScope, TensorStorageComesFromBoundArena) {
  Arena a(1 << 16);
  {
    ArenaScope scope(a);
    Tensor t({4, 4}, 2.0f);
    EXPECT_EQ(a.used(), 64);  // 16 floats round to one cache line
    EXPECT_EQ(t.at({3, 3}), 2.0f);
    Tensor copy = t;  // copies allocate from the arena too
    EXPECT_EQ(a.used(), 128);
    EXPECT_TRUE(copy.allclose(t, 0.0f));
  }
  a.reset();
  // Values-adopting construction stays on the heap even under a scope: the
  // vector was already allocated.
  ArenaScope scope(a);
  Tensor v({2}, std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(v[1], 2.0f);
}

TEST(ArenaScope, ArenaAndHeapTensorsAreElementWiseIdentical) {
  // The identity that makes the serving arena invisible to results: the same
  // construction sequence under a scope yields bit-equal values.
  const auto build = [] {
    Tensor t({3, 5}, 0.5f);
    t.at({2, 4}) = -1.25f;
    Tensor r = t.reshape({5, 3});
    return r.index(4);
  };
  const Tensor heap = build();
  Arena a(1 << 16);
  Tensor from_arena;
  {
    ArenaScope scope(a);
    Tensor inside = build();
    from_arena = Tensor(inside.shape(), std::vector<float>(
                            inside.data().begin(), inside.data().end()));
  }
  ASSERT_EQ(heap.shape(), from_arena.shape());
  for (int64_t i = 0; i < heap.numel(); ++i)
    EXPECT_EQ(heap[i], from_arena[i]);
}

TEST(ScratchVec, ArenaBackedUnderScopeHeapOtherwise) {
  Arena a(4096);
  {
    ArenaScope scope(a);
    ScratchVec<int32_t> s(10);
    EXPECT_EQ(s.size(), 10);
    EXPECT_EQ(a.used(), 64);  // 40 bytes rounds to one line
    for (int64_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], 0);
    ScratchVec<float> raw(4, /*zero_fill=*/false);
    raw[0] = 1.5f;
    EXPECT_EQ(raw[0], 1.5f);
  }
  a.reset();
  ScratchVec<int32_t> heap(10);
  EXPECT_EQ(a.used(), 0);
  for (int64_t i = 0; i < heap.size(); ++i) EXPECT_EQ(heap[i], 0);
  ScratchVec<float> empty(0);
  EXPECT_EQ(empty.size(), 0);
}

// --------------------------------------------------------------- borrow ----

TEST(TensorBorrow, ViewsCallerStorageWithoutCopy) {
  const Tensor owner({3, 4}, 1.5f);
  const Tensor view = Tensor::borrow({1, 3, 4}, owner.data());
  EXPECT_EQ(view.shape(), (Shape{1, 3, 4}));
  EXPECT_EQ(view.numel(), 12);
  // Same storage, not a copy.
  EXPECT_EQ(view.data().data(), owner.data().data());
  EXPECT_EQ(view.at({0, 2, 3}), 1.5f);
  // Copying the view materialises an owning tensor.
  const Tensor copy = view;
  EXPECT_NE(copy.data().data(), owner.data().data());
  EXPECT_TRUE(copy.allclose(view, 0.0f));
  EXPECT_THROW(Tensor::borrow({2, 3, 4}, owner.data()),
               std::invalid_argument);
}

}  // namespace
}  // namespace itask
