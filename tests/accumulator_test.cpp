// Tests for bundling: the carry-save majority bundle every encoder uses
// (its per-dimension counts are bit-sliced, hence the BitSlice suite
// names) and the signed training accumulator.
#include "robusthd/hv/accumulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "robusthd/util/rng.hpp"

namespace robusthd::hv {
namespace {

/// Majority bundle of `inputs` through hv::bundle_majority_into.
BinVec bundle(const std::vector<BinVec>& inputs,
              const BinVec* tie_break = nullptr) {
  std::vector<const std::uint64_t*> rows;
  for (const auto& v : inputs) rows.push_back(v.words().data());
  BinVec out;
  bundle_majority_into(inputs.front().dimension(), rows, {}, tie_break, out);
  return out;
}

TEST(BitSliceCounter, CountsMatchScalarReference) {
  // The kernel's bit-sliced counts, read through the majority they decide
  // on, match per-dimension integer counts.
  const std::size_t dim = 300;
  util::Xoshiro256 rng(1);
  std::vector<BinVec> inputs;
  std::vector<std::uint32_t> reference(dim, 0);
  for (int i = 0; i < 37; ++i) {
    inputs.push_back(BinVec::random(dim, rng));
    for (std::size_t d = 0; d < dim; ++d) reference[d] += inputs.back().get(d);
  }
  const auto out = bundle(inputs);
  for (std::size_t d = 0; d < dim; ++d) {
    ASSERT_EQ(out.get(d), 2 * reference[d] > 37) << "dim " << d;
  }
}

TEST(BitSliceCounter, MajorityThreshold) {
  const std::size_t dim = 64;
  BinVec ones(dim);
  for (std::size_t d = 0; d < dim; ++d) ones.set(d, true);
  const BinVec zeros(dim);
  const auto out = bundle({ones, ones, zeros});
  EXPECT_EQ(out.count_ones(), dim);  // 2 of 3 -> majority 1
}

TEST(BitSliceCounter, TieBreakUsed) {
  const std::size_t dim = 10;
  BinVec ones(dim);
  for (std::size_t d = 0; d < dim; ++d) ones.set(d, true);
  const std::vector<BinVec> tied = {ones, BinVec(dim)};  // tie everywhere
  BinVec tie(dim);
  tie.set(3, true);
  const auto out = bundle(tied, &tie);
  EXPECT_EQ(out.count_ones(), 1u);
  EXPECT_TRUE(out.get(3));
  // Without a tie-break vector every tie resolves to 0.
  EXPECT_EQ(bundle(tied).count_ones(), 0u);
}

TEST(BitSliceCounter, EmptyBundleIsTieVector) {
  util::Xoshiro256 rng(2);
  const auto tie = BinVec::random(130, rng);
  BinVec out;
  bundle_majority_into(130, {}, {}, &tie, out);
  EXPECT_EQ(out, tie);
  bundle_majority_into(130, {}, {}, nullptr, out);
  EXPECT_EQ(out.count_ones(), 0u);
}

TEST(SignedAccumulator, BipolarCounting) {
  SignedAccumulator acc(4);
  BinVec v(4);
  v.set(0, true);
  v.set(1, true);
  acc.add(v);          // +1 +1 -1 -1
  acc.add(v, 2);       // +2 +2 -2 -2
  v.set(0, false);
  acc.add(v, -1);      // +1 -1 +1 +1
  EXPECT_EQ(acc.count(0), 4);
  EXPECT_EQ(acc.count(1), 2);
  EXPECT_EQ(acc.count(2), -2);
  EXPECT_EQ(acc.count(3), -2);
}

TEST(SignedAccumulator, SignThreshold) {
  SignedAccumulator acc(3);
  acc.count(0) = 5;
  acc.count(1) = -5;
  acc.count(2) = 0;
  BinVec tie(3);
  tie.set(2, true);
  const auto out = acc.sign(&tie);
  EXPECT_TRUE(out.get(0));
  EXPECT_FALSE(out.get(1));
  EXPECT_TRUE(out.get(2));
  const auto out_no_tie = acc.sign();
  EXPECT_FALSE(out_no_tie.get(2));
}

TEST(SignedAccumulator, OneBitQuantizationIsSign) {
  SignedAccumulator acc(5);
  acc.count(0) = 10;
  acc.count(1) = -10;
  acc.count(2) = 1;
  acc.count(3) = -1;
  acc.count(4) = 0;
  const auto planes = acc.quantize_planes(1);
  ASSERT_EQ(planes.size(), 1u);
  EXPECT_EQ(planes[0], acc.sign());
}

TEST(SignedAccumulator, TwoBitQuantizationOrdersByMagnitude) {
  SignedAccumulator acc(4);
  acc.count(0) = 100;   // strong 1 -> level 3
  acc.count(1) = 10;    // weak 1
  acc.count(2) = -10;   // weak 0
  acc.count(3) = -100;  // strong 0 -> level 0
  const auto planes = acc.quantize_planes(2);
  ASSERT_EQ(planes.size(), 2u);
  auto level = [&](std::size_t d) {
    return (planes[1].get(d) ? 2 : 0) + (planes[0].get(d) ? 1 : 0);
  };
  EXPECT_EQ(level(0), 3);
  EXPECT_EQ(level(3), 0);
  EXPECT_GE(level(1), 2);  // positive counts land in upper half
  EXPECT_LE(level(2), 1);  // negative counts land in lower half
  EXPECT_GT(level(0) - level(3), level(1) - level(2));
}

class BitSliceSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitSliceSizes, AgreesWithSignedAccumulatorMajority) {
  // Property: majority via bit-sliced counting == sign of bipolar counts
  // for odd bundle sizes (no ties possible).
  const std::size_t dim = GetParam();
  util::Xoshiro256 rng(dim);
  std::vector<BinVec> inputs;
  SignedAccumulator sign(dim);
  for (int i = 0; i < 11; ++i) {
    inputs.push_back(BinVec::random(dim, rng));
    sign.add(inputs.back());
  }
  EXPECT_EQ(bundle(inputs), sign.sign());
}

INSTANTIATE_TEST_SUITE_P(Dims, BitSliceSizes,
                         ::testing::Values(1, 63, 64, 65, 500, 1000));

}  // namespace
}  // namespace robusthd::hv
