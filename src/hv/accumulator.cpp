#include "robusthd/hv/accumulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/stats.hpp"

namespace robusthd::hv {

void bundle_majority_into(std::size_t dimension,
                          std::span<const std::uint64_t* const> rows,
                          std::span<const std::uint64_t* const> binds,
                          const BinVec* tie_break, BinVec& out) {
  assert(binds.empty() || binds.size() == rows.size());
  assert(tie_break == nullptr || tie_break->dimension() == dimension);
  if (out.dimension() != dimension) out = BinVec(dimension);
  kernels::bundle_majority(rows.data(), binds.empty() ? nullptr : binds.data(),
                           rows.size(), out.word_count(),
                           tie_break != nullptr ? tie_break->words().data()
                                                : nullptr,
                           out.mutable_words().data());
  out.mask_tail();
}

void SignedAccumulator::add(const BinVec& bits, std::int32_t weight) {
  assert(bits.dimension() == counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += bits.get(i) ? weight : -weight;
  }
}

BinVec SignedAccumulator::sign(const BinVec* tie_break) const {
  BinVec out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0) {
      out.set(i, true);
    } else if (counts_[i] == 0 && tie_break != nullptr) {
      out.set(i, tie_break->get(i));
    }
  }
  return out;
}

std::vector<BinVec> SignedAccumulator::quantize_planes(unsigned bits) const {
  assert(bits >= 1 && bits <= 8);
  const std::size_t dim = counts_.size();
  std::vector<BinVec> planes(bits, BinVec(dim));

  if (bits == 1) {
    planes[0] = sign();
    return planes;
  }

  // Robust scale: 95th percentile of |count| so a few outlier dimensions do
  // not flatten everything else into the middle levels.
  std::vector<double> mags(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    mags[i] = std::abs(static_cast<double>(counts_[i]));
  }
  double scale = util::percentile(std::move(mags), 95.0);
  if (scale <= 0.0) scale = 1.0;

  const auto levels = (1u << bits) - 1;  // top level index
  for (std::size_t i = 0; i < dim; ++i) {
    // Map count in [-scale, scale] to level in [0, levels]; level encodes
    // quantised confidence that the underlying bit is 1.
    const double x =
        std::clamp(static_cast<double>(counts_[i]) / scale, -1.0, 1.0);
    const auto level = static_cast<unsigned>(
        std::lround((x + 1.0) / 2.0 * static_cast<double>(levels)));
    for (unsigned p = 0; p < bits; ++p) {
      if ((level >> p) & 1u) planes[p].set(i, true);
    }
  }
  return planes;
}

}  // namespace robusthd::hv
