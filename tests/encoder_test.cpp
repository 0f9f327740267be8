// Tests for the record-based (ID-level) encoder.
#include "robusthd/hv/encoder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "robusthd/hv/alt_encoders.hpp"
#include "robusthd/hv/sequence.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::hv {
namespace {

EncoderConfig small_config() {
  EncoderConfig config;
  config.dimension = 2048;
  config.levels = 16;
  return config;
}

TEST(RecordEncoder, Deterministic) {
  RecordEncoder enc(10, small_config());
  std::vector<float> x(10, 0.3f);
  EXPECT_EQ(enc.encode(x), enc.encode(x));
}

TEST(RecordEncoder, DifferentSeedsDifferentCodes) {
  auto config = small_config();
  RecordEncoder a(10, config);
  config.seed ^= 1;
  RecordEncoder b(10, config);
  std::vector<float> x(10, 0.3f);
  EXPECT_NEAR(similarity(a.encode(x), b.encode(x)), 0.5, 0.05);
}

TEST(RecordEncoder, SimilarInputsSimilarCodes) {
  RecordEncoder enc(50, small_config());
  util::Xoshiro256 rng(5);
  std::vector<float> x(50), y(50), z(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = static_cast<float>(rng.uniform());
    y[i] = x[i] + 0.01f;  // tiny perturbation
    z[i] = static_cast<float>(rng.uniform());  // unrelated
  }
  const auto hx = enc.encode(x);
  const double near_sim = similarity(hx, enc.encode(y));
  const double far_sim = similarity(hx, enc.encode(z));
  EXPECT_GT(near_sim, 0.9);
  EXPECT_GT(near_sim, far_sim + 0.05);
}

TEST(RecordEncoder, SingleFeatureChangeHasLocalEffect) {
  RecordEncoder enc(100, small_config());
  std::vector<float> x(100, 0.5f);
  auto y = x;
  y[42] = 1.0f;
  const double sim = similarity(enc.encode(x), enc.encode(y));
  EXPECT_GT(sim, 0.9);   // one of 100 features changed
  EXPECT_LT(sim, 1.0);   // but it does change the code
}

TEST(RecordEncoder, OutputIsBalanced) {
  RecordEncoder enc(30, small_config());
  util::Xoshiro256 rng(6);
  std::vector<float> x(30);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  const auto h = enc.encode(x);
  const auto ones = static_cast<double>(h.count_ones());
  EXPECT_NEAR(ones / 2048.0, 0.5, 0.05);
}

TEST(RecordEncoder, EncodeAllMatchesEncode) {
  RecordEncoder enc(8, small_config());
  data::Dataset d;
  d.features = util::Matrix(3, 8);
  util::Xoshiro256 rng(7);
  for (auto& v : d.features.flat()) v = static_cast<float>(rng.uniform());
  d.labels = {0, 1, 0};
  d.num_classes = 2;
  const auto all = enc.encode_all(d);
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(all[i], enc.encode(d.sample(i)));
  }
}

TEST(RecordEncoder, NonFiniteFeaturesEncodeLikeClampedValues) {
  // NaN takes level 0 and ±inf the end levels: no input indexes past the
  // level table.
  RecordEncoder record(12, small_config());
  ThermometerEncoder::Config tconfig;
  tconfig.dimension = 1024;
  ThermometerEncoder thermometer(12, tconfig);
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<float, float>> cases = {
      {std::numeric_limits<float>::quiet_NaN(), 0.0f},
      {-std::numeric_limits<float>::quiet_NaN(), 0.0f},
      {inf, 1.0f},
      {-inf, 0.0f}};
  for (const auto& [value, twin] : cases) {
    std::vector<float> x(12, 0.4f), clamped(12, 0.4f);
    x[5] = value;
    clamped[5] = twin;
    EXPECT_EQ(record.encode(x), record.encode(clamped)) << value;
    EXPECT_EQ(thermometer.encode(x), thermometer.encode(clamped)) << value;
  }
}

class EncoderDims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EncoderDims, DimensionPropagates) {
  EncoderConfig config;
  config.dimension = GetParam();
  config.levels = 8;
  RecordEncoder enc(5, config);
  EXPECT_EQ(enc.dimension(), GetParam());
  std::vector<float> x(5, 0.5f);
  EXPECT_EQ(enc.encode(x).dimension(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Dims, EncoderDims,
                         ::testing::Values(64, 100, 1000, 10000));


// ---- golden encodings --------------------------------------------------
//
// FNV-1a digests of fixed-seed batches, recorded from the ripple-carry
// bit-sliced counter the encoders used before the carry-save bundling
// kernel replaced it. Counts are exact integers and the cut and tie rule
// are unchanged, so every encoding must stay bit-identical on every ISA.

std::uint64_t fnv1a(const std::vector<BinVec>& codes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& code : codes) {
    for (const std::uint64_t word : code.words()) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (8 * byte)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

/// Features drawn from [-0.1, 1.1], so both clamps are exercised.
std::vector<std::vector<float>> golden_samples(std::size_t count,
                                               std::size_t features) {
  util::Xoshiro256 rng(0x601d);
  std::vector<std::vector<float>> samples(count,
                                          std::vector<float>(features));
  for (auto& s : samples) {
    for (auto& v : s) v = static_cast<float>(rng.uniform(-0.1, 1.1));
  }
  return samples;
}

std::uint64_t record_digest(std::size_t features, std::size_t dimension,
                            std::size_t count) {
  EncoderConfig config;
  config.dimension = dimension;
  const RecordEncoder encoder(features, config);
  std::vector<BinVec> codes;
  for (const auto& s : golden_samples(count, features)) {
    codes.push_back(encoder.encode(s));
  }
  return fnv1a(codes);
}

TEST(GoldenEncoding, RecordPamapShape) {
  EXPECT_EQ(record_digest(75, 4000, 64), 0x782e887d22477c3bULL);
}

TEST(GoldenEncoding, RecordIsoletShape) {
  EXPECT_EQ(record_digest(617, 10000, 16), 0x582d59131fa5b65cULL);
}

TEST(GoldenEncoding, RecordEvenFeatureCountUsesTieBreak) {
  EXPECT_EQ(record_digest(16, 1000, 64), 0x7dced44d989925c7ULL);
}

TEST(GoldenEncoding, Thermometer) {
  ThermometerEncoder::Config config;
  config.dimension = 2000;
  config.levels = 16;
  const ThermometerEncoder encoder(20, config);
  std::vector<BinVec> codes;
  for (const auto& s : golden_samples(64, 20)) {
    codes.push_back(encoder.encode(s));
  }
  EXPECT_EQ(fnv1a(codes), 0x93729d170c090479ULL);
}

TEST(GoldenEncoding, Sequence) {
  SequenceEncoder::Config config;
  config.dimension = 3000;
  config.ngram = 3;
  const SequenceEncoder encoder(26, config);
  util::Xoshiro256 rng(0x5e90);
  std::vector<BinVec> codes;
  // Lengths below, at and above the n-gram size; odd and even gram counts.
  for (const std::size_t length : {0, 1, 2, 3, 4, 5, 8, 13, 20, 33}) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::size_t> sequence(length);
      for (auto& symbol : sequence) symbol = rng.below(26);
      codes.push_back(encoder.encode(sequence));
    }
  }
  EXPECT_EQ(fnv1a(codes), 0x34c573739ac1111dULL);
}

}  // namespace
}  // namespace robusthd::hv
