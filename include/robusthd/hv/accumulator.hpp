#pragma once
// Bundling.
//
// HDC bundling is per-dimension integer addition of binary vectors followed
// by a majority threshold. Encoding a sample bundles up to ~800 bound
// vectors (one per feature), so every encoder bundles through the
// dispatched carry-save kernel (kernels::Ops::bundle_majority): the
// per-dimension counts live bit-sliced in SIMD registers, one block of
// words at a time, and never touch memory. Class training bundles far
// fewer, larger vectors and uses plain int32 counters for clarity.

#include <cstdint>
#include <span>
#include <vector>

#include "robusthd/hv/binvec.hpp"

namespace robusthd::hv {

/// Majority bundle into `out` (resized to `dimension` only when it differs):
/// bit i is 1 when more than half of rows[k] ⊕ binds[k] have bit i set,
/// ties (even bundle sizes only) take bit i of `tie_break`, or 0 when it is
/// null. `binds` is empty (rows are bundled as they are) or as long as
/// `rows`; each pointer addresses the words of a `dimension`-bit vector.
/// The rows are read in place, so the bound vectors are never
/// materialised and the call allocates nothing once `out` is sized.
void bundle_majority_into(std::size_t dimension,
                          std::span<const std::uint64_t* const> rows,
                          std::span<const std::uint64_t* const> binds,
                          const BinVec* tie_break, BinVec& out);

/// Plain signed per-dimension counters used for class-hypervector training
/// and retraining (supports subtraction for perceptron-style updates).
class SignedAccumulator {
 public:
  explicit SignedAccumulator(std::size_t dimension)
      : counts_(dimension, 0) {}

  std::size_t dimension() const noexcept { return counts_.size(); }

  /// counts[i] += bit_i ? +1 : -1, scaled by weight (bipolar bundling).
  void add(const BinVec& bits, std::int32_t weight = 1);

  std::int32_t count(std::size_t dim) const noexcept { return counts_[dim]; }
  std::int32_t& count(std::size_t dim) noexcept { return counts_[dim]; }

  /// Sign threshold: bit i = counts[i] > 0 (ties -> tie_break bit or 0).
  BinVec sign(const BinVec* tie_break = nullptr) const;

  /// Quantises each counter into `bits`-bit magnitude levels and returns
  /// one binary plane per bit (plane p carries weight 2^p). This is the
  /// multi-precision model of Table 1: 1 bit == sign only, 2 bits == sign
  /// plus one magnitude level.
  std::vector<BinVec> quantize_planes(unsigned bits) const;

 private:
  std::vector<std::int32_t> counts_;
};

}  // namespace robusthd::hv
