// Fuzz-style robustness tests: random inputs must never corrupt state,
// produce non-finite numbers, or crash — only reject cleanly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "data/dataset.h"
#include "kg/matcher.h"
#include "kg/logic.h"
#include "kg/serialize.h"
#include "llm/oracle.h"
#include "tensor/io.h"
#include "tensor/ops.h"

namespace itask {
namespace {

std::string random_text(Rng& rng, int64_t length) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ .,;:-()0123456789";
  std::string out;
  for (int64_t i = 0; i < length; ++i)
    out.push_back(kAlphabet[rng.randint(0, sizeof(kAlphabet) - 2)]);
  return out;
}

TEST(Fuzz, OracleAcceptsArbitraryText) {
  Rng rng(101);
  llm::OracleOptions opt;
  opt.weight_noise = 0.3f;
  opt.drop_probability = 0.2f;
  opt.spurious_probability = 0.2f;
  const llm::Oracle oracle(opt);
  for (int i = 0; i < 40; ++i) {
    const std::string text = random_text(rng, rng.randint(0, 300));
    const kg::KnowledgeGraph g = oracle.generate(text);
    EXPECT_GT(g.node_count(), 0);
    // Graph always serializes and parses back.
    const kg::KnowledgeGraph back = kg::deserialize(kg::serialize(g));
    EXPECT_EQ(back.node_count(), g.node_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
    // Compiled task is finite.
    const auto ct = kg::compile_task(g, g.find("task", kg::NodeType::kTask),
                                     data::kNumAttributes, data::kNumClasses);
    for (int64_t a = 0; a < data::kNumAttributes; ++a) {
      EXPECT_TRUE(std::isfinite(ct.positive[a]));
      EXPECT_TRUE(std::isfinite(ct.negative[a]));
    }
  }
}

TEST(Fuzz, RandomScenesRenderFinitePixels) {
  Rng rng(202);
  for (int trial = 0; trial < 25; ++trial) {
    data::GeneratorOptions opt;
    opt.min_objects = static_cast<int64_t>(rng.randint(0, 4));
    opt.max_objects =
        std::min<int64_t>(9, opt.min_objects + rng.randint(0, 5));
    opt.color_jitter = rng.uniform(0.0f, 0.3f);
    opt.center_jitter = rng.uniform(0.0f, 0.3f);
    data::SceneGenerator gen(opt);
    const data::Scene scene = gen.generate(rng);
    for (float v : scene.image.data()) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, -0.01f);
      EXPECT_LE(v, 1.5f);  // blending can mildly exceed 1 for specular cues
    }
  }
}

TEST(Fuzz, GraphDeserializerRejectsGarbage) {
  Rng rng(303);
  for (int i = 0; i < 40; ++i) {
    const std::string junk =
        "ITASK-KG v1\n" + random_text(rng, rng.randint(1, 120));
    // Either parses (if it happens to be valid) or throws — never crashes.
    try {
      (void)kg::deserialize(junk);
    } catch (const std::invalid_argument&) {
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, TaskExprParserRejectsGarbage) {
  Rng rng(404);
  for (int i = 0; i < 60; ++i) {
    const std::string junk = random_text(rng, rng.randint(1, 60));
    try {
      const kg::TaskExpr e = kg::TaskExpr::parse(junk);
      // If it parsed, it must round-trip.
      EXPECT_EQ(kg::TaskExpr::parse(e.to_string()).to_string(),
                e.to_string());
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Fuzz, SoftmaxNeverProducesNan) {
  Rng rng(505);
  for (int i = 0; i < 20; ++i) {
    Tensor x = rng.randn({8, 16}, 0.0f, rng.uniform(0.1f, 50.0f));
    // Inject extremes.
    x[0] = 1e30f;
    x[1] = -1e30f;
    const Tensor y = ops::softmax_lastdim(x);
    for (float v : y.data()) EXPECT_TRUE(std::isfinite(v));
    const Tensor ly = ops::log_softmax_lastdim(x);
    for (float v : ly.data()) EXPECT_TRUE(v <= 0.0f || std::isnan(v)) << v;
    for (float v : ly.data()) EXPECT_FALSE(std::isnan(v));
  }
}

TEST(Fuzz, CheckpointReaderRejectsTruncationAndBitFlips) {
  // A corrupt checkpoint either loads or throws std::runtime_error: never
  // another exception type, never more name and payload bytes than the
  // file holds. Every strict prefix is missing data, so it must throw; a
  // flipped bit may land in a payload and still load.
  Rng rng(31);
  io::StateDict state;
  state.emplace("blocks.0.attn.qkv.weight", rng.randn({6, 2}));
  state.emplace("blocks.0.attn.qkv.bias", rng.randn({6}));
  state.emplace("cls", rng.randn({1, 1, 2}));
  const std::string path =
      (std::filesystem::temp_directory_path() / "itask_fuzz_ckpt.itsk")
          .string();
  io::save_state_dict(state, path);
  std::string good;
  {
    std::ifstream is(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(is), {});
  }
  const auto load = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    try {
      const io::StateDict loaded = io::load_state_dict(path);
      int64_t held = 0;
      for (const auto& [name, tensor] : loaded)
        held += static_cast<int64_t>(name.size()) +
                tensor.numel() * static_cast<int64_t>(sizeof(float));
      EXPECT_LE(held, static_cast<int64_t>(bytes.size()));
      return true;
    } catch (const std::runtime_error&) {
      return false;
    }
  };
  ASSERT_TRUE(load(good));
  for (size_t len = 0; len < good.size(); ++len)
    EXPECT_FALSE(load(good.substr(0, len))) << "prefix of " << len;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bad = good;
    const int64_t bit = rng.randint(0, static_cast<int64_t>(bad.size()) * 8 - 1);
    bad[static_cast<size_t>(bit / 8)] ^= static_cast<char>(1 << (bit % 8));
    load(bad);
  }
  std::remove(path.c_str());
}

TEST(Fuzz, DatasetBatchingArbitrarySubsets) {
  data::GeneratorOptions opt;
  data::SceneGenerator gen(opt);
  Rng rng(606);
  const data::Dataset ds = data::Dataset::generate(gen, 24, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t count = rng.randint(1, ds.size());
    const auto subset = rng.sample_indices(ds.size(), count);
    const data::Batch batch =
        ds.make_batch(subset, &data::task_by_id(rng.randint(0, 7)));
    EXPECT_EQ(batch.images.dim(0), count);
    for (float v : batch.attributes.data()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

}  // namespace
}  // namespace itask
