#pragma once
// Item memory: the fixed random hypervectors the encoder binds with.
//
// * Base (ID) hypervectors B_k — one i.i.d. random vector per feature
//   position, pairwise ~D/2 apart, retain where a value occurred.
// * Level hypervectors L_j — quantisation levels of the feature value.
//   Built by cumulative random flips so that similar values map to similar
//   hypervectors and the extreme levels are ~D/2 apart (standard ID-level
//   encoding, as used by the paper's encoder reference [19]).

#include <cstdint>
#include <vector>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::hv {

/// Maps a normalised feature value onto one of `level_count` (>= 1)
/// levels: values in [0, 1] round to the nearest level, values outside
/// clamp to the end levels (±inf included) and NaN maps to level 0. Total,
/// so no input can index past a level table; shared by every
/// level-quantising encoder.
std::size_t quantize_level(float value, std::size_t level_count) noexcept;

/// Immutable after construction; shared by the encoder for train and test.
class ItemMemory {
 public:
  /// Generates base vectors for `feature_count` positions and `level_count`
  /// value levels of dimension `dimension`, deterministically from `seed`.
  ItemMemory(std::size_t dimension, std::size_t feature_count,
             std::size_t level_count, std::uint64_t seed);

  std::size_t dimension() const noexcept { return dim_; }
  std::size_t feature_count() const noexcept { return bases_.size(); }
  std::size_t level_count() const noexcept { return levels_.size(); }

  const BinVec& base(std::size_t feature) const noexcept {
    return bases_[feature];
  }
  const BinVec& level(std::size_t level) const noexcept {
    return levels_[level];
  }

  /// Maps a normalised feature value to a level index (quantize_level).
  std::size_t level_index(float value) const noexcept {
    return quantize_level(value, levels_.size());
  }

 private:
  std::size_t dim_;
  std::vector<BinVec> bases_;
  std::vector<BinVec> levels_;
};

}  // namespace robusthd::hv
