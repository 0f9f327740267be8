#pragma once
// Abstract feature-vector encoder interface.
//
// The paper uses the record-based (ID-level) encoder; the library ships two
// more (thermometer and random-projection) so the encoder itself can be
// ablated — robustness claims should survive the choice of encoding, and
// `bench/ablation_encoders` checks that they do.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "robusthd/data/dataset.hpp"
#include "robusthd/hv/binvec.hpp"

namespace robusthd::hv {

/// Reusable encode scratch: the word pointers an encoder gathers for the
/// bundling kernel (one row and one bind per feature), kept across calls
/// so a hot encode loop (trainer, serve worker) performs zero heap
/// allocations per sample once the vectors have grown to the feature
/// count. One workspace per thread; never share across threads.
struct EncodeWorkspace {
  std::vector<const std::uint64_t*> rows;
  std::vector<const std::uint64_t*> binds;

  /// Fingerprint of the owned storage. Steady-state paths assert (debug)
  /// that it stops changing — i.e. that encoding really allocates nothing.
  std::pair<std::size_t, std::size_t> capacity_signature() const noexcept {
    return {rows.capacity(), binds.capacity()};
  }
};

/// Maps normalised feature vectors (values in [0,1]) to binary
/// hypervectors. Implementations are deterministic in their seed and
/// thread-compatible (const encode).
class Encoder {
 public:
  virtual ~Encoder() = default;

  virtual std::size_t dimension() const noexcept = 0;
  virtual std::size_t feature_count() const noexcept = 0;

  /// Encodes one sample.
  virtual BinVec encode(std::span<const float> features) const = 0;

  /// Allocation-aware variant: encodes into `out`, reusing `ws` across
  /// calls. The default forwards to encode(); encoders with a hot path
  /// (RecordEncoder) override it with a zero-allocation implementation.
  virtual void encode_into(std::span<const float> features, BinVec& out,
                           EncodeWorkspace& ws) const {
    (void)ws;
    out = encode(features);
  }

  /// Encodes every row of a dataset.
  std::vector<BinVec> encode_all(const data::Dataset& dataset) const;
};

}  // namespace robusthd::hv
