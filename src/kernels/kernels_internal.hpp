#pragma once
// Internal glue between the dispatch unit and the per-ISA translation
// units. Each ISA lives in its own TU compiled with exactly the flags it
// needs, so the rest of the library keeps the portable baseline ABI and
// the dispatcher can select at runtime without illegal-instruction risk.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "robusthd/kernels/kernels.hpp"

namespace robusthd::kernels::detail {

/// Portable reference kernels (always available; the equivalence oracle).
const Ops& scalar_ops() noexcept;

/// AVX2 Harley–Seal kernels; nullptr when compiled out.
const Ops* avx2_ops() noexcept;

/// AVX-512 VPOPCNTDQ kernels; nullptr when compiled out.
const Ops* avx512_ops() noexcept;

/// Scalar bundle_majority over the word columns [begin, end): the body of
/// the scalar reference kernel and the tail path every SIMD variant ends
/// with, compiled with the baseline flags only.
void bundle_majority_columns_scalar(const std::uint64_t* const* rows,
                                    const std::uint64_t* const* binds,
                                    std::size_t n, std::size_t begin,
                                    std::size_t end,
                                    const std::uint64_t* tie_break,
                                    std::uint64_t* out) noexcept;

/// Planes of a bundle count above the four Harley–Seal low planes
/// (ones, twos, fours, eights): bit_width(n) - 4 <= 60 for any n.
inline constexpr std::size_t kMaxHighPlanes = 60;

/// Majority of n inputs over one block of word columns, counted entirely
/// in lanes of type L::V (one word for scalar, 4 for AVX2, 8 for AVX-512).
/// Input k is rows[k] (XOR binds[k] when kBound) at word offset w.
///
/// The count is kept bit-sliced: count = ones + 2·twos + 4·fours +
/// 8·eights + 16·high, where high[] is a bit-sliced count of the
/// sixteens. Each 16 inputs pass through a Harley–Seal carry-save tree
/// (15 CSAs) whose carry-out ripples once into high[]; the n mod 16
/// leftover inputs ripple in one at a time. The planes are then compared
/// against cut = floor(n/2) from the top bit down: bit = count > cut, or
/// count == cut (a tie, possible only for even n) and the `tie` lane bit.
///
/// L provides zero(), all_ones(), load(p), bxor/band/bor(a, b),
/// andnot(a, b) = ~a & b and csa(h, l, a, b, c). Instantiated only with
/// lane types local to each ISA's translation unit, so every
/// instantiation has internal linkage and keeps its TU's compile flags.
template <class L, bool kBound>
inline typename L::V bundle_block(const std::uint64_t* const* rows,
                                  const std::uint64_t* const* binds,
                                  std::size_t n, std::size_t w,
                                  typename L::V tie) noexcept {
  using V = typename L::V;
  const auto input = [&](std::size_t k) {
    V x = L::load(rows[k] + w);
    if constexpr (kBound) x = L::bxor(x, L::load(binds[k] + w));
    return x;
  };
  const auto width = static_cast<std::size_t>(std::bit_width(n));
  const std::size_t high_planes = width > 4 ? width - 4 : 0;
  // Only the planes in use are initialised, and only they are ever read.
  V high[kMaxHighPlanes];
  for (std::size_t p = 0; p < high_planes; ++p) high[p] = L::zero();
  // count <= n < 2^width, so a carry never leaves the top plane.
  const auto add_high = [&](V carry) {
    for (std::size_t p = 0; p < high_planes; ++p) {
      const V h = high[p];
      high[p] = L::bxor(h, carry);
      carry = L::band(h, carry);
    }
  };

  V ones = L::zero(), twos = L::zero(), fours = L::zero(),
    eights = L::zero();
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    V twos_a = L::zero(), twos_b = L::zero(), fours_a = L::zero(),
      fours_b = L::zero(), eights_a = L::zero(), eights_b = L::zero(),
      sixteens = L::zero();
    L::csa(twos_a, ones, ones, input(k + 0), input(k + 1));
    L::csa(twos_b, ones, ones, input(k + 2), input(k + 3));
    L::csa(fours_a, twos, twos, twos_a, twos_b);
    L::csa(twos_a, ones, ones, input(k + 4), input(k + 5));
    L::csa(twos_b, ones, ones, input(k + 6), input(k + 7));
    L::csa(fours_b, twos, twos, twos_a, twos_b);
    L::csa(eights_a, fours, fours, fours_a, fours_b);
    L::csa(twos_a, ones, ones, input(k + 8), input(k + 9));
    L::csa(twos_b, ones, ones, input(k + 10), input(k + 11));
    L::csa(fours_a, twos, twos, twos_a, twos_b);
    L::csa(twos_a, ones, ones, input(k + 12), input(k + 13));
    L::csa(twos_b, ones, ones, input(k + 14), input(k + 15));
    L::csa(fours_b, twos, twos, twos_a, twos_b);
    L::csa(eights_b, fours, fours, fours_a, fours_b);
    L::csa(sixteens, eights, eights, eights_a, eights_b);
    add_high(sixteens);
  }
  for (; k < n; ++k) {
    V carry = input(k);
    const auto ripple = [&carry](V& plane) {
      const V p = plane;
      plane = L::bxor(p, carry);
      carry = L::band(p, carry);
    };
    ripple(ones);
    ripple(twos);
    ripple(fours);
    ripple(eights);
    add_high(carry);
  }

  // Planes above `width` and cut bits above it are zero, so stepping the
  // four low planes unconditionally leaves gt/eq exact for small n.
  const std::size_t cut = n / 2;
  V gt = L::zero();
  V eq = L::all_ones();
  const auto step = [&](V plane, std::size_t bit) {
    if ((cut >> bit) & 1U) {
      eq = L::band(eq, plane);
    } else {
      gt = L::bor(gt, L::band(eq, plane));
      eq = L::andnot(plane, eq);
    }
  };
  for (std::size_t p = high_planes; p-- > 0;) step(high[p], p + 4);
  step(eights, 3);
  step(fours, 2);
  step(twos, 1);
  step(ones, 0);
  if (n % 2 == 0) gt = L::bor(gt, L::band(eq, tie));
  return gt;
}

/// Scalar popcount of one word without assuming the POPCNT instruction —
/// shared by the tail paths of every variant (std::popcount lowers to the
/// best sequence each TU's flags permit).
inline std::size_t word_popcount(std::uint64_t w) noexcept {
  return static_cast<std::size_t>(std::popcount(w));
}

/// Applies the first/last word masks in place for the masked-range kernels.
/// n >= 1; when n == 1 both masks intersect.
inline std::uint64_t masked_word(std::uint64_t x, std::size_t i, std::size_t n,
                                 std::uint64_t first_mask,
                                 std::uint64_t last_mask) noexcept {
  if (i == 0) x &= first_mask;
  if (i + 1 == n) x &= last_mask;
  return x;
}

/// Effective tile width of an arena PlaneSet (0 means untiled).
inline std::size_t arena_tile_words(const PlaneSet& ps) noexcept {
  return ps.tile_words == 0 || ps.tile_words > ps.words ? ps.words
                                                        : ps.tile_words;
}

/// Software-prefetches words [p, p + n), one touch per 64-byte line. Used
/// by the arena kernels to pull the next tile of a plane row into cache
/// while the current tile is being consumed.
inline void prefetch_words(const std::uint64_t* p, std::size_t n) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  for (std::size_t i = 0; i < n; i += 8) {
    __builtin_prefetch(p + i, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace robusthd::kernels::detail
