// Tests for deterministic RNG and state-dict serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tensor/io.h"
#include "tensor/rng.h"

namespace itask {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.randint(0, 1000), b.randint(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.randint(0, 1 << 30) == b.randint(0, 1 << 30)) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const float v = rng.normal(1.0f, 2.0f);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, RandintInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.randint(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.randint(3, 2), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctSorted) {
  Rng rng(5);
  const auto idx = rng.sample_indices(20, 7);
  ASSERT_EQ(idx.size(), 7u);
  for (size_t i = 1; i < idx.size(); ++i) EXPECT_LT(idx[i - 1], idx[i]);
  EXPECT_GE(idx.front(), 0);
  EXPECT_LT(idx.back(), 20);
  EXPECT_THROW(rng.sample_indices(5, 6), std::invalid_argument);
}

TEST(Rng, ForkIndependence) {
  Rng parent(42);
  Rng child = parent.fork();
  // Child stream should not simply replay the parent stream.
  Rng parent2(42);
  Rng child2 = parent2.fork();
  EXPECT_EQ(child.uniform(), child2.uniform());  // fork is deterministic
}

TEST(Rng, TensorFactories) {
  Rng rng(9);
  Tensor n = rng.randn({100}, 0.0f, 1.0f);
  EXPECT_EQ(n.numel(), 100);
  Tensor u = rng.rand({50}, 2.0f, 4.0f);
  for (float v : u.data()) {
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 4.0f);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Io, StateDictRoundTrip) {
  io::StateDict state;
  Rng rng(21);
  state.emplace("layer.weight", rng.randn({4, 5}));
  state.emplace("layer.bias", rng.randn({5}));
  state.emplace("scalar", Tensor({1}, {3.14f}));
  const std::string path =
      (std::filesystem::temp_directory_path() / "itask_io_test.bin").string();
  io::save_state_dict(state, path);
  const io::StateDict loaded = io::load_state_dict(path);
  ASSERT_EQ(loaded.size(), state.size());
  for (const auto& [k, v] : state) {
    const auto it = loaded.find(k);
    ASSERT_NE(it, loaded.end()) << k;
    EXPECT_EQ(it->second.shape(), v.shape());
    EXPECT_TRUE(it->second.allclose(v, 0.0f));
  }
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(io::load_state_dict("/nonexistent/itask.bin"),
               std::runtime_error);
}

TEST(Io, CorruptMagicThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "itask_io_bad.bin").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a state dict";
  }
  EXPECT_THROW(io::load_state_dict(path), std::runtime_error);
  std::remove(path.c_str());
}

// Raw ITSK bytes (magic, version, count, then name / rank / dims / payload
// per entry), for headers save_state_dict never writes.
class ItskBytes {
 public:
  explicit ItskBytes(uint64_t count) {
    pod(uint32_t{0x4954534B});
    pod(uint32_t{1});
    pod(count);
  }
  ItskBytes& entry(const std::string& name, std::vector<int64_t> dims,
                   int64_t payload_floats) {
    pod(static_cast<uint64_t>(name.size()));
    bytes_ += name;
    pod(static_cast<uint64_t>(dims.size()));
    for (int64_t d : dims) pod(d);
    bytes_.append(static_cast<size_t>(payload_floats) * sizeof(float), '\0');
    return *this;
  }
  template <typename T>
  ItskBytes& pod(T value) {
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof value);
    return *this;
  }
  std::string write(const std::string& file) const {
    const std::string path =
        (std::filesystem::temp_directory_path() / file).string();
    std::ofstream(path, std::ios::binary) << bytes_;
    return path;
  }

 private:
  std::string bytes_;
};

// Loading must fail with std::runtime_error and nothing else.
void expect_rejected(const std::string& path) {
  EXPECT_THROW(io::load_state_dict(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Io, RejectsNameLengthBeyondTheFile) {
  // A flipped high bit of name_len once built a 2^62-byte zero string.
  ItskBytes bytes(1);
  bytes.pod(uint64_t{1} << 62).pod(uint64_t{1}).pod(int64_t{2});
  expect_rejected(bytes.write("itask_io_name_len.bin"));
}

TEST(Io, RejectsDimsWhoseProductOverflows) {
  // 2^32 · 2^32 overflows int64; the product must be checked, not wrapped.
  ItskBytes bytes(1);
  bytes.entry("w", {int64_t{1} << 32, int64_t{1} << 32}, 0);
  expect_rejected(bytes.write("itask_io_overflow.bin"));
}

TEST(Io, RejectsPayloadBeyondTheFile) {
  ItskBytes bytes(1);
  bytes.entry("w", {1 << 16, 1 << 4}, 4);
  expect_rejected(bytes.write("itask_io_payload.bin"));
}

TEST(Io, RejectsNegativeDimAndRankAboveMaxRank) {
  ItskBytes negative(1);
  negative.entry("w", {2, -1}, 0);
  expect_rejected(negative.write("itask_io_negative.bin"));
  ItskBytes deep(1);
  deep.entry("w", std::vector<int64_t>(Shape::kMaxRank + 1, 1), 1);
  expect_rejected(deep.write("itask_io_rank.bin"));
}

TEST(Io, RejectsDuplicateNames) {
  ItskBytes bytes(2);
  bytes.entry("w", {2}, 2).entry("w", {3}, 3);
  expect_rejected(bytes.write("itask_io_duplicate.bin"));
}

}  // namespace
}  // namespace itask
