// Tests for item memory: base hypervectors and the level chain.
#include "robusthd/hv/itemmemory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "robusthd/util/rng.hpp"

namespace robusthd::hv {
namespace {

constexpr std::size_t kDim = 4096;

TEST(ItemMemory, ShapesAndDeterminism) {
  ItemMemory a(kDim, 20, 16, 7);
  EXPECT_EQ(a.dimension(), kDim);
  EXPECT_EQ(a.feature_count(), 20u);
  EXPECT_EQ(a.level_count(), 16u);
  ItemMemory b(kDim, 20, 16, 7);
  EXPECT_EQ(a.base(3), b.base(3));
  EXPECT_EQ(a.level(5), b.level(5));
  ItemMemory c(kDim, 20, 16, 8);
  EXPECT_NE(a.base(3), c.base(3));
}

TEST(ItemMemory, BaseVectorsQuasiOrthogonal) {
  ItemMemory memory(kDim, 10, 8, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      const double sim = similarity(memory.base(i), memory.base(j));
      EXPECT_NEAR(sim, 0.5, 0.05) << i << " vs " << j;
    }
  }
}

TEST(ItemMemory, LevelChainMonotoneDistance) {
  const std::size_t levels = 16;
  ItemMemory memory(kDim, 4, levels, 2);
  // Distance from level 0 grows monotonically along the chain.
  std::size_t previous = 0;
  for (std::size_t j = 1; j < levels; ++j) {
    const std::size_t d = hamming(memory.level(0), memory.level(j));
    EXPECT_GT(d, previous) << "level " << j;
    previous = d;
  }
  // Extremes are ~D/2 apart.
  EXPECT_NEAR(static_cast<double>(previous), kDim / 2.0, kDim * 0.02);
}

TEST(ItemMemory, AdjacentLevelsAreClose) {
  const std::size_t levels = 32;
  ItemMemory memory(kDim, 4, levels, 3);
  for (std::size_t j = 0; j + 1 < levels; ++j) {
    const std::size_t d = hamming(memory.level(j), memory.level(j + 1));
    // Each step flips ~ D/2/(levels-1) bits.
    EXPECT_NEAR(static_cast<double>(d), kDim / 2.0 / (levels - 1),
                kDim * 0.01);
  }
}

TEST(ItemMemory, LevelIndexMapping) {
  ItemMemory memory(kDim, 4, 8, 4);
  EXPECT_EQ(memory.level_index(0.0f), 0u);
  EXPECT_EQ(memory.level_index(1.0f), 7u);
  EXPECT_EQ(memory.level_index(0.5f), 4u);  // rounds to nearest
  // Clamped outside [0, 1].
  EXPECT_EQ(memory.level_index(-5.0f), 0u);
  EXPECT_EQ(memory.level_index(5.0f), 7u);
}

TEST(ItemMemory, LevelIndexIsTotal) {
  // NaN used to pass std::clamp and wrap through lround to 2^63; every
  // value must now land on a real level.
  ItemMemory memory(kDim, 4, 32, 4);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(memory.level_index(std::numeric_limits<float>::quiet_NaN()), 0u);
  EXPECT_EQ(memory.level_index(-std::numeric_limits<float>::quiet_NaN()), 0u);
  EXPECT_EQ(memory.level_index(inf), 31u);
  EXPECT_EQ(memory.level_index(-inf), 0u);
  EXPECT_EQ(memory.level_index(-0.0f), 0u);
  EXPECT_EQ(memory.level_index(std::numeric_limits<float>::denorm_min()), 0u);
}

TEST(ItemMemory, QuantizeLevelKeepsFiniteMapping) {
  // Finite inputs map exactly as clamp-then-round always has.
  util::Xoshiro256 rng(9);
  for (const std::size_t levels : {2, 8, 32, 100}) {
    const auto last = static_cast<float>(levels - 1);
    for (int i = 0; i < 20000; ++i) {
      const auto value = static_cast<float>(rng.uniform(-0.5, 1.5));
      const auto expected = static_cast<std::size_t>(
          std::lround(std::clamp(value, 0.0f, 1.0f) * last));
      ASSERT_EQ(quantize_level(value, levels), expected)
          << "value " << value << " levels " << levels;
    }
    // Every rounding boundary j + 0.5 and its float neighbours.
    for (std::size_t j = 0; j + 1 < levels; ++j) {
      const float mid = (static_cast<float>(j) + 0.5f) / last;
      for (const float v : {std::nextafter(mid, 0.0f), mid,
                            std::nextafter(mid, 1.0f)}) {
        ASSERT_EQ(quantize_level(v, levels),
                  static_cast<std::size_t>(
                      std::lround(std::clamp(v, 0.0f, 1.0f) * last)))
            << "value " << v << " levels " << levels;
      }
    }
  }
}

}  // namespace
}  // namespace robusthd::hv
