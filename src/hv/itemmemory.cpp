#include "robusthd/hv/itemmemory.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace robusthd::hv {

ItemMemory::ItemMemory(std::size_t dimension, std::size_t feature_count,
                       std::size_t level_count, std::uint64_t seed)
    : dim_(dimension) {
  assert(level_count >= 2);
  util::Xoshiro256 rng(seed);

  bases_.reserve(feature_count);
  for (std::size_t k = 0; k < feature_count; ++k) {
    bases_.push_back(BinVec::random(dim_, rng));
  }

  // Level chain: L_0 random; each next level flips a disjoint slice of a
  // random permutation of positions, so L_0 and L_last differ in ~D/2 bits
  // and Hamming distance grows linearly with level separation.
  levels_.reserve(level_count);
  levels_.push_back(BinVec::random(dim_, rng));
  std::vector<std::size_t> order(dim_);
  for (std::size_t i = 0; i < dim_; ++i) order[i] = i;
  util::shuffle(std::span<std::size_t>(order), rng);

  const std::size_t total_flips = dim_ / 2;
  for (std::size_t j = 1; j < level_count; ++j) {
    BinVec next = levels_.back();
    const std::size_t begin = (j - 1) * total_flips / (level_count - 1);
    const std::size_t end = j * total_flips / (level_count - 1);
    for (std::size_t t = begin; t < end; ++t) next.flip(order[t]);
    levels_.push_back(std::move(next));
  }
}

std::size_t quantize_level(float value, std::size_t level_count) noexcept {
  // !(value > 0) also catches NaN, which std::clamp would pass through to
  // lround (whose result for NaN is unspecified).
  if (!(value > 0.0f)) return 0;
  const std::size_t last = level_count - 1;
  if (value >= 1.0f) return last;
  return static_cast<std::size_t>(
      std::lround(value * static_cast<float>(last)));
}

}  // namespace robusthd::hv
