#include "robusthd/model/hdc_model.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/parallel.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::model {

namespace {

/// Nearest and second-nearest class by Hamming distance against binary
/// (sign) snapshots of the accumulators — keeps retraining word-parallel
/// instead of per-dimension.
struct NearestTwo {
  int best = 0;
  int second = -1;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  std::size_t second_distance = std::numeric_limits<std::size_t>::max();
};

/// Scans a row of per-class distances; tie-breaking (lowest index wins)
/// matches the historical per-pair loop exactly.
NearestTwo nearest_two(const std::uint32_t* distances, std::size_t classes) {
  NearestTwo out;
  for (std::size_t c = 0; c < classes; ++c) {
    const std::size_t d = distances[c];
    if (d < out.best_distance) {
      out.second_distance = out.best_distance;
      out.second = out.best;
      out.best_distance = d;
      out.best = static_cast<int>(c);
    } else if (d < out.second_distance) {
      out.second_distance = d;
      out.second = static_cast<int>(c);
    }
  }
  return out;
}

}  // namespace

HdcModel HdcModel::train(std::span<const hv::BinVec> encoded,
                         std::span<const int> labels,
                         std::size_t num_classes, const HdcConfig& config) {
  assert(!encoded.empty());
  assert(encoded.size() == labels.size());

  const std::size_t dim = encoded[0].dimension();

  // Pass 1: bundle every training hypervector into its class accumulator.
  std::vector<hv::SignedAccumulator> accs(num_classes,
                                          hv::SignedAccumulator(dim));
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    accs[static_cast<std::size_t>(labels[i])].add(encoded[i]);
  }

  // Perceptron-style retraining: on a mistake, reinforce the true class and
  // weaken the predicted one (standard HDC practice; improves the single-
  // pass model substantially on harder tasks). Predictions run against
  // binary sign snapshots so each epoch is word-parallel; only the two
  // accumulators touched by a mistake have their snapshots refreshed.
  std::vector<hv::BinVec> signs;
  signs.reserve(num_classes);
  for (const auto& acc : accs) signs.push_back(acc.sign());

  // The epoch loop scores each sample against every sign snapshot with
  // the dispatched per-pair Hamming kernel.
  std::vector<std::uint32_t> distances(num_classes);

  const auto min_margin = static_cast<std::size_t>(
      config.retrain_margin * static_cast<double>(dim));
  for (std::size_t epoch = 0; epoch < config.retrain_epochs; ++epoch) {
    std::size_t updates = 0;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      const int truth = labels[i];
      for (std::size_t c = 0; c < num_classes; ++c) {
        distances[c] =
            static_cast<std::uint32_t>(hv::hamming(encoded[i], signs[c]));
      }
      const auto nearest = nearest_two(distances.data(), num_classes);
      const bool wrong = nearest.best != truth;
      const bool thin_margin =
          !wrong && nearest.second_distance - nearest.best_distance <
                        min_margin;
      if (wrong || thin_margin) {
        const auto t = static_cast<std::size_t>(truth);
        const int rival = wrong ? nearest.best : nearest.second;
        accs[t].add(encoded[i], +1);
        signs[t] = accs[t].sign();
        if (rival >= 0) {
          const auto g = static_cast<std::size_t>(rival);
          accs[g].add(encoded[i], -1);
          signs[g] = accs[g].sign();
        }
        ++updates;
      }
    }
    if (updates == 0) break;
  }

  return from_accumulators(accs, config.precision_bits);
}

HdcModel HdcModel::from_accumulators(
    std::span<const hv::SignedAccumulator> accumulators,
    unsigned precision_bits) {
  assert(!accumulators.empty());
  HdcModel model;
  model.precision_bits_ = std::max(precision_bits, 1u);
  model.arena_ = mem::PlaneArena(accumulators.size() * model.precision_bits_,
                                 accumulators[0].dimension());
  std::size_t next = 0;
  for (const auto& acc : accumulators) {
    for (const auto& plane : acc.quantize_planes(model.precision_bits_)) {
      model.arena_.store_plane(next++, plane);
    }
  }
  return model;
}

HdcModel HdcModel::from_planes(std::vector<ClassVector> classes,
                               unsigned precision_bits) {
  const unsigned bits = std::max(precision_bits, 1u);
  if (classes.empty() || classes[0].planes.empty()) {
    throw std::invalid_argument("from_planes: no class planes");
  }
  const std::size_t dim = classes[0].planes[0].dimension();
  for (const auto& cls : classes) {
    if (cls.planes.size() != bits) {
      throw std::invalid_argument(
          "from_planes: every class must hold precision_bits planes");
    }
    for (const auto& plane : cls.planes) {
      if (plane.dimension() != dim) {
        throw std::invalid_argument(
            "from_planes: planes of unequal dimension");
      }
    }
  }
  HdcModel model;
  model.precision_bits_ = bits;
  model.arena_ = mem::PlaneArena(classes.size() * bits, dim);
  std::size_t next = 0;
  for (const auto& cls : classes) {
    for (const auto& plane : cls.planes) {
      model.arena_.store_plane(next++, plane);
    }
  }
  return model;
}

ClassVector HdcModel::class_vector(std::size_t cls) const {
  ClassVector cv;
  cv.planes.resize(precision_bits_);
  for (std::size_t p = 0; p < precision_bits_; ++p) {
    arena_.load_plane(row(cls, p), cv.planes[p]);
  }
  return cv;
}

std::vector<double> HdcModel::scores(const hv::BinVec& query) const {
  return chunk_scores(query, 0, dimension());
}

void HdcModel::chunk_scores_into(const hv::BinVec& query, std::size_t begin,
                                 std::size_t end, double* out) const {
  const std::size_t k = num_classes();
  const std::size_t width = end - begin;
  if (width == 0) {
    std::fill(out, out + k, 0.0);
    return;
  }
  const double denom = static_cast<double>(width) *
                       static_cast<double>((1u << precision_bits_) - 1);
  for (std::size_t c = 0; c < k; ++c) {
    double score = 0.0;
    for (std::size_t p = 0; p < precision_bits_; ++p) {
      const std::size_t matches =
          width - hv::hamming_range(query.words(), plane_words(c, p), begin,
                                    end);
      score += static_cast<double>(1u << p) * static_cast<double>(matches);
    }
    out[c] = score / denom;
  }
}

std::vector<double> HdcModel::chunk_scores(const hv::BinVec& query,
                                           std::size_t begin,
                                           std::size_t end) const {
  std::vector<double> out(num_classes(), 0.0);
  chunk_scores_into(query, begin, end, out.data());
  return out;
}

void HdcModel::chunk_scores_all(const hv::BinVec& query, std::size_t chunks,
                                std::vector<double>& out) const {
  const std::size_t k = num_classes();
  const std::size_t dim = dimension();
  out.resize(chunks * k);
  for (std::size_t c = 0; c < chunks; ++c) {
    // Same partition as RecoveryEngine::chunk_range.
    const std::size_t begin = c * dim / chunks;
    const std::size_t end = (c + 1) * dim / chunks;
    chunk_scores_into(query, begin, end, out.data() + c * k);
  }
}

void HdcModel::scores_batch(std::span<const hv::BinVec* const> queries,
                            ScoreWorkspace& ws) const {
  const std::size_t q = queries.size();
  ws.scores.resize(q * num_classes());
  if (q == 0 || num_classes() == 0) return;

  ws.query_ptrs.resize(q);
  for (std::size_t i = 0; i < q; ++i) {
    ws.query_ptrs[i] = queries[i]->words().data();
  }
  // One tiled pass over the arena; row c * precision + p of the plane set
  // is column c * precision + p of the distance matrix.
  ws.distances.resize(q * arena_.num_planes());
  kernels::hamming_matrix_arena(ws.query_ptrs.data(), q, arena_.view(),
                                ws.distances.data());
  combine_distances(ws, q, dimension());
}

void HdcModel::scores_batch_masked(std::span<const hv::BinVec* const> queries,
                                   std::span<const std::uint64_t> mask,
                                   std::size_t kept_dims,
                                   ScoreWorkspace& ws) const {
  const std::size_t q = queries.size();
  ws.scores.resize(q * num_classes());
  if (q == 0 || num_classes() == 0) return;
  if (kept_dims == 0) {
    std::fill(ws.scores.begin(), ws.scores.end(), 0.0);
    return;
  }

  ws.query_ptrs.resize(q);
  for (std::size_t i = 0; i < q; ++i) {
    ws.query_ptrs[i] = queries[i]->words().data();
  }
  ws.distances.resize(q * arena_.num_planes());
  kernels::hamming_matrix_arena_masked(ws.query_ptrs.data(), q, arena_.view(),
                                       mask.data(), ws.distances.data());
  // kept_dims stands in for dimension() with the float operation order
  // unchanged, so an all-ones mask reproduces scores_batch bit-for-bit.
  combine_distances(ws, q, kept_dims);
}

void HdcModel::combine_distances(ScoreWorkspace& ws, std::size_t queries,
                                 std::size_t kept_dims) const {
  // Operation order matches chunk_scores_into exactly, so the scores are
  // bit-identical to the per-query path.
  const std::size_t k = num_classes();
  const std::size_t planes = arena_.num_planes();
  const double denom = static_cast<double>(kept_dims) *
                       static_cast<double>((1u << precision_bits_) - 1);
  for (std::size_t i = 0; i < queries; ++i) {
    const std::uint32_t* dist = ws.distances.data() + i * planes;
    double* out = ws.scores.data() + i * k;
    for (std::size_t c = 0; c < k; ++c) {
      double score = 0.0;
      for (std::size_t p = 0; p < precision_bits_; ++p) {
        const std::size_t matches = kept_dims - dist[row(c, p)];
        score += static_cast<double>(1u << p) * static_cast<double>(matches);
      }
      out[c] = score / denom;
    }
  }
}

int HdcModel::predict(const hv::BinVec& query) const {
  const auto s = scores(query);
  return static_cast<int>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

std::vector<int> HdcModel::predict_batch(std::span<const hv::BinVec> queries,
                                         std::size_t max_threads) const {
  std::vector<int> out(queries.size());
  const std::size_t k = num_classes();
  // Queries are scored in blocks through the arena kernel; the block
  // argmax matches predict()'s max_element (first maximum wins), so
  // results stay bit-identical to the serial per-query loop regardless of
  // block size or thread count. The tile loop lives inside the kernel, so
  // one call streams each plane tile from memory once for the whole block.
  constexpr std::size_t kBlock = 256;
  const std::size_t blocks = (queries.size() + kBlock - 1) / kBlock;
  util::parallel_for(
      blocks,
      [&](std::size_t b) {
        thread_local ScoreWorkspace ws;
        const std::size_t begin = b * kBlock;
        const std::size_t end = std::min(begin + kBlock, queries.size());
        thread_local std::vector<const hv::BinVec*> block_queries;
        block_queries.resize(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          block_queries[i - begin] = &queries[i];
        }
        scores_batch(block_queries, ws);
        for (std::size_t i = begin; i < end; ++i) {
          const double* s = ws.scores.data() + (i - begin) * k;
          out[i] = static_cast<int>(std::max_element(s, s + k) - s);
        }
      },
      max_threads);
  return out;
}

double HdcModel::evaluate(std::span<const hv::BinVec> queries,
                          std::span<const int> labels) const {
  if (queries.empty()) return 0.0;
  const auto predicted = predict_batch(queries);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    correct += (predicted[i] == labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(queries.size());
}

std::vector<fault::MemoryRegion> HdcModel::memory_regions() {
  std::vector<fault::MemoryRegion> regions;
  regions.reserve(arena_.num_planes());
  for (std::size_t c = 0; c < num_classes(); ++c) {
    for (std::size_t p = 0; p < precision_bits_; ++p) {
      regions.push_back(fault::MemoryRegion{
          std::as_writable_bytes(mutable_plane_words(c, p)), 1,
          "class" + std::to_string(c) + "/plane" + std::to_string(p)});
    }
  }
  return regions;
}

}  // namespace robusthd::model
