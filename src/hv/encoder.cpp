#include "robusthd/hv/encoder.hpp"

#include <cassert>

#include "robusthd/hv/accumulator.hpp"

namespace robusthd::hv {

RecordEncoder::RecordEncoder(std::size_t feature_count,
                             const EncoderConfig& config)
    : memory_(config.dimension, feature_count, config.levels, config.seed) {
  util::Xoshiro256 rng(config.seed ^ 0x71ebULL);
  tie_break_ = BinVec::random(config.dimension, rng);
}

BinVec RecordEncoder::encode(std::span<const float> features) const {
  // Per-thread workspace: repeated encodes on the same thread (encode_all
  // under parallel_for, trainer loops) reuse the gathered pointer storage.
  thread_local EncodeWorkspace ws;
  BinVec out;
  encode_into(features, out, ws);
  return out;
}

void RecordEncoder::encode_into(std::span<const float> features, BinVec& out,
                                EncodeWorkspace& ws) const {
  assert(features.size() == memory_.feature_count());
  ws.rows.resize(features.size());
  ws.binds.resize(features.size());
  for (std::size_t k = 0; k < features.size(); ++k) {
    ws.rows[k] =
        memory_.level(memory_.level_index(features[k])).words().data();
    ws.binds[k] = memory_.base(k).words().data();
  }
  bundle_majority_into(memory_.dimension(), ws.rows, ws.binds, &tie_break_,
                       out);
}

}  // namespace robusthd::hv
