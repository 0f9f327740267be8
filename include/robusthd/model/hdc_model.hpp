#pragma once
// The hyperdimensional classifier (Section 3).
//
// Training bundles encoded hypervectors per class into signed accumulators,
// optionally refines them with perceptron-style retraining, and deploys a
// quantised model: one binary plane for the standard 1-bit model, or
// multiple weighted planes for the higher-precision variants of Table 1.
// Inference is plane-weighted Hamming similarity; for the 1-bit model this
// is exactly the paper's Hamming-distance check.

#include <cstdint>
#include <span>
#include <vector>

#include "robusthd/fault/memory.hpp"
#include "robusthd/hv/accumulator.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/mem/plane_arena.hpp"

namespace robusthd::model {

/// Reusable buffers for the blocked batch-scoring path (one per thread;
/// capacities persist across batches, so steady-state scoring performs no
/// allocations).
struct ScoreWorkspace {
  std::vector<const std::uint64_t*> query_ptrs;
  std::vector<std::uint32_t> distances;  ///< q x (k * planes) row-major
  std::vector<double> scores;            ///< q x k row-major
};

/// Training hyper-parameters.
struct HdcConfig {
  unsigned precision_bits = 1;     ///< deployed model precision (Table 1)
  std::size_t retrain_epochs = 10; ///< perceptron refinement passes
  /// Margin-aware retraining: also update on *correct* predictions whose
  /// Hamming margin to the runner-up is below this fraction of D. Wider
  /// margins are what buy bit-flip robustness, so this knob directly
  /// trades training time for fault tolerance.
  double retrain_margin = 0.005;
  std::uint64_t seed = 0xcafe;
};

/// One class hypervector as weighted binary planes (plane p carries weight
/// 2^p; 1-bit models have a single plane) — the exchange format of
/// from_planes() and class_vector(), not the model's storage.
struct ClassVector {
  std::vector<hv::BinVec> planes;
};

/// Trained HDC model: k class hypervectors over dimension D. The planes
/// live in one mem::PlaneArena — row c * precision_bits() + p holds class
/// c, plane p — and nowhere else: scoring, fault injection, repair, WAL
/// replay and ECC write-back all read and write those rows, so every
/// write is visible to the next score. Copies are deep (one memcpy of the
/// arena), which is how model snapshots are published.
class HdcModel {
 public:
  /// Single-pass bundling + retraining over pre-encoded training data.
  static HdcModel train(std::span<const hv::BinVec> encoded,
                        std::span<const int> labels, std::size_t num_classes,
                        const HdcConfig& config = {});

  /// Deploys a model directly from per-class accumulators (used by the
  /// online trainer and by anything that builds its own bundles).
  static HdcModel from_accumulators(
      std::span<const hv::SignedAccumulator> accumulators,
      unsigned precision_bits = 1);

  /// Rebuilds a model from deployed class planes (deserialisation). Every
  /// class must hold max(precision_bits, 1) planes, all of one dimension;
  /// anything else (no classes, ragged plane counts, mixed dimensions)
  /// throws std::invalid_argument.
  static HdcModel from_planes(std::vector<ClassVector> classes,
                              unsigned precision_bits);

  std::size_t num_classes() const noexcept {
    return arena_.num_planes() / precision_bits_;
  }
  std::size_t dimension() const noexcept { return arena_.dimension(); }
  unsigned precision_bits() const noexcept { return precision_bits_; }

  /// One class's planes copied out as BinVecs — an export for tests,
  /// benches and examples. Library code reads plane_words() instead.
  ClassVector class_vector(std::size_t cls) const;

  /// Read-only packed words of one class plane: the arena row, the same
  /// storage the scoring kernels stream.
  std::span<const std::uint64_t> plane_words(std::size_t cls,
                                             std::size_t plane) const noexcept {
    return {arena_.plane(row(cls, plane)), arena_.words()};
  }

  /// Writable packed words of one class plane — the arena row itself, so
  /// repairs, WAL replay and ECC write-back land directly in the scored
  /// storage. Writers keep the bits at positions >= dimension() clear.
  std::span<std::uint64_t> mutable_plane_words(std::size_t cls,
                                               std::size_t plane) noexcept {
    return {arena_.plane(row(cls, plane)), arena_.words()};
  }

  /// The plane storage itself (geometry/diagnostics: bytes, tile width,
  /// hugepage backing).
  const mem::PlaneArena& arena() const noexcept { return arena_; }

  /// Normalised similarity score per class, each in [0, 1]
  /// (1-bit: 1 - hamming/D).
  std::vector<double> scores(const hv::BinVec& query) const;

  /// Batched scores: one tiled pass over the arena
  /// (kernels::hamming_matrix_arena) scores every query against every
  /// class. Results land in ws.scores (row q holds scores(*queries[q])),
  /// bit-identical to the per-query path. The plane-weighted multi-precision
  /// models run through the same kernel — every plane is one more row of
  /// the distance matrix.
  void scores_batch(std::span<const hv::BinVec* const> queries,
                    ScoreWorkspace& ws) const;

  /// scores_batch restricted to the dimensions whose bits are set in
  /// `mask` — the quarantine path of the serving runtime's degradation
  /// ladder (exclude-the-unreliable-segment scoring, in the spirit of
  /// TCAM segment masking). `mask` must hold words_for_bits(dimension())
  /// words with every bit at position >= dimension() clear; `kept_dims`
  /// is its popcount and becomes the normalisation denominator, so the
  /// surviving dimensions are rescaled to the same [0, 1] range and the
  /// scores stay comparable across classes. With an all-ones mask
  /// (kept_dims == dimension()) the result is bit-identical to
  /// scores_batch.
  void scores_batch_masked(std::span<const hv::BinVec* const> queries,
                           std::span<const std::uint64_t> mask,
                           std::size_t kept_dims, ScoreWorkspace& ws) const;

  /// Per-class similarity restricted to the dimensions [begin, end) — the
  /// "treat each chunk as a separate HDC model" primitive of Section 4.2.
  std::vector<double> chunk_scores(const hv::BinVec& query, std::size_t begin,
                                   std::size_t end) const;

  /// All `chunks` equal ranges at once: row c of `out` (k doubles) holds
  /// chunk_scores(query, begin_c, end_c). One call, one output buffer —
  /// the RecoveryEngine's per-observation chunk sweep without per-chunk
  /// vector churn.
  void chunk_scores_all(const hv::BinVec& query, std::size_t chunks,
                        std::vector<double>& out) const;

  /// argmax of scores().
  int predict(const hv::BinVec& query) const;

  /// Batched inference: predictions for every query, deterministically
  /// parallel over the batch (scores() is const and queries are
  /// independent, so results are bit-identical to the serial loop
  /// regardless of thread count). `max_threads` as in util::parallel_for;
  /// 1 forces the serial path. This is the const entry point the serving
  /// runtime scores model snapshots through.
  std::vector<int> predict_batch(std::span<const hv::BinVec> queries,
                                 std::size_t max_threads = 0) const;

  /// Accuracy over a pre-encoded test set.
  double evaluate(std::span<const hv::BinVec> queries,
                  std::span<const int> labels) const;

  /// The stored representation, one region per class plane over the live
  /// words of its arena row, class-major and plane-minor (value_bits == 1:
  /// every bit is an equally weighted coordinate of a hypervector plane, so
  /// a targeted attacker has no better-than-random bit to pick). Flips
  /// through these regions change the very next score.
  std::vector<fault::MemoryRegion> memory_regions();

 private:
  /// Shared scoring core: writes classes() doubles at `out`.
  void chunk_scores_into(const hv::BinVec& query, std::size_t begin,
                         std::size_t end, double* out) const;

  /// Plane-weighted combination of ws.distances into ws.scores, each
  /// plane's matches counted out of `kept_dims` dimensions.
  void combine_distances(ScoreWorkspace& ws, std::size_t queries,
                         std::size_t kept_dims) const;

  std::size_t row(std::size_t cls, std::size_t plane) const noexcept {
    return cls * precision_bits_ + plane;
  }

  unsigned precision_bits_ = 1;
  mem::PlaneArena arena_;
};

}  // namespace robusthd::model
