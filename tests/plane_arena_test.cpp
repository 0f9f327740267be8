// Tests for mem::PlaneArena and the arena scoring path.
//
// Covers the storage invariants the arena kernels rely on (64-byte base
// and per-row alignment, vector-multiple and set-de-aliased stride, L1/L2
// tile geometry), the hugepage request plumbing and its graceful
// fallback, BinVec round-trips through store/load, the arena kernels'
// bit-identity with a per-bit reference over the row-major source BinVecs
// on every available ISA (awkward dimensions, several tile widths, all-
// ones / all-zero / random / single-chunk masks), and the model-level
// storage contract: the arena is the only copy of the planes, so writes
// through memory_regions() or mutable_plane_words() change the very next
// score, copies are deep, and ragged input is rejected.
#include "robusthd/mem/plane_arena.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/util/aligned.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd {
namespace {

constexpr std::array<kernels::Isa, 3> kAllIsas = {
    kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512};

mem::PlaneArena make_arena(std::size_t planes, std::size_t dim,
                           util::Xoshiro256& rng,
                           std::vector<hv::BinVec>& sources,
                           const mem::PlaneArenaConfig& config = {}) {
  mem::PlaneArena arena(planes, dim, config);
  sources.clear();
  for (std::size_t p = 0; p < planes; ++p) {
    sources.push_back(hv::BinVec::random(dim, rng));
    arena.store_plane(p, sources.back());
  }
  return arena;
}

// ---- storage invariants -------------------------------------------------

TEST(PlaneArenaTest, AlignmentAndStrideInvariants) {
  util::Xoshiro256 rng(1);
  for (const auto& [planes, dim] : std::vector<std::pair<std::size_t,
                                                         std::size_t>>{
           {1, 63}, {3, 64}, {7, 65}, {16, 10000}, {4, 32768}, {2, 131072}}) {
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(planes, dim, rng, sources);
    ASSERT_FALSE(arena.empty());
    EXPECT_EQ(arena.num_planes(), planes);
    EXPECT_EQ(arena.dimension(), dim);
    EXPECT_EQ(arena.words(), util::words_for_bits(dim));
    EXPECT_TRUE(util::is_cacheline_aligned(arena.data()));
    for (std::size_t p = 0; p < planes; ++p) {
      EXPECT_TRUE(util::is_cacheline_aligned(arena.plane(p)));
    }
    // Stride: whole 512-bit vectors, at least the payload...
    EXPECT_EQ(arena.stride_words() % 8, 0u);
    EXPECT_GE(arena.stride_words(), arena.words());
    // ...and never a page multiple: a 4096-byte-aligned stride maps the
    // same tile chunk of every plane onto one small group of L2 sets.
    EXPECT_NE(arena.stride_words() * sizeof(std::uint64_t) % 4096, 0u)
        << "stride " << arena.stride_words() << " words aliases L2 sets";
  }
}

TEST(PlaneArenaTest, PageMultipleStrideIsPadded) {
  // 32768 bits = 512 words = exactly 4 KiB: the natural stride is a page
  // multiple and must be padded by one vector.
  mem::PlaneArena arena(2, 32768);
  EXPECT_EQ(arena.words(), 512u);
  EXPECT_EQ(arena.stride_words(), 520u);
}

TEST(PlaneArenaTest, TileGeometry) {
  mem::PlaneArenaConfig config;
  config.l2_tile_bytes = 1u << 20;
  // 128 planes, 4096 words: the 1 MiB L2 budget would allow 1024-word
  // chunks, but the L1 cap (8-query group working set) holds them at 512.
  mem::PlaneArena arena(128, 262144, config);
  EXPECT_EQ(arena.tile_words(), 512u);
  EXPECT_EQ(arena.num_tiles(), 8u);

  // Many planes: the L2 budget divides below the cap.
  mem::PlaneArena narrow(1024, 262144, config);
  EXPECT_EQ(narrow.tile_words(), 128u);

  // Few words: a single tile covering the whole plane.
  mem::PlaneArena tiny(4, 1000, config);
  EXPECT_EQ(tiny.tile_words(), tiny.words());
  EXPECT_EQ(tiny.num_tiles(), 1u);

  // Tile width is always a whole number of vectors (or the whole plane).
  for (std::size_t planes : {3u, 77u, 500u}) {
    mem::PlaneArena a(planes, 100000, config);
    if (a.tile_words() < a.words()) {
      EXPECT_EQ(a.tile_words() % 8, 0u) << planes << " planes";
    }
  }
}

TEST(PlaneArenaTest, EmptyArena) {
  mem::PlaneArena arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.num_planes(), 0u);
  EXPECT_EQ(arena.bytes(), 0u);
  EXPECT_EQ(arena.data(), nullptr);
}

TEST(PlaneArenaTest, HugepageDisabledNeverBacked) {
  mem::PlaneArenaConfig config;
  config.hugepages = false;
  mem::PlaneArena arena(8, 100000, config);
  EXPECT_FALSE(arena.hugepage_backed());
  // Allocation works either way and is zero-filled.
  for (std::size_t w = 0; w < arena.words(); ++w) {
    ASSERT_EQ(arena.plane(3)[w], 0u);
  }
}

TEST(PlaneArenaTest, HugepageRequestIsBestEffort) {
  // With the request on, the flag reports whatever the kernel granted —
  // either way the arena must be usable and zeroed.
  mem::PlaneArenaConfig config;
  config.hugepages = true;
  mem::PlaneArena arena(4, 2 * 1024 * 1024);
  ASSERT_FALSE(arena.empty());
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t w = 0; w < arena.words(); w += 997) {
      ASSERT_EQ(arena.plane(p)[w], 0u);
    }
  }
}

// ---- round-trips --------------------------------------------------------

TEST(PlaneArenaTest, StoreLoadRoundTrip) {
  util::Xoshiro256 rng(2);
  for (std::size_t dim : {63u, 64u, 65u, 10000u}) {
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(5, dim, rng, sources);
    for (std::size_t p = 0; p < 5; ++p) {
      hv::BinVec out;
      arena.load_plane(p, out);
      EXPECT_EQ(out, sources[p]) << "dim " << dim << " plane " << p;
    }
  }
}

// ---- kernel equivalence ------------------------------------------------

/// Per-bit reference: popcount((q XOR plane) AND mask) over the first
/// `dim` bits, read straight off the row-major source BinVecs.
std::uint32_t ref_distance(const hv::BinVec& q, const hv::BinVec& plane,
                           std::span<const std::uint64_t> mask,
                           std::size_t dim) {
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    d += (q.get(i) != plane.get(i)) && util::get_bit(mask, i);
  }
  return d;
}

/// Masks over `dim` bits: all-ones, all-zero, random, and one chunk (the
/// middle fifth) kept — the quarantine shapes the serving ladder produces.
std::vector<util::AlignedU64Vec> test_masks(std::size_t dim,
                                            util::Xoshiro256& rng) {
  const std::size_t words = util::words_for_bits(dim);
  util::AlignedU64Vec ones(words, ~0ull);
  if (dim % 64 != 0) ones[words - 1] = util::low_mask(dim % 64);
  util::AlignedU64Vec zeros(words, 0);
  util::AlignedU64Vec random(words);
  for (std::size_t w = 0; w < words; ++w) random[w] = rng.next() & ones[w];
  util::AlignedU64Vec chunk(words, 0);
  for (std::size_t i = dim * 2 / 5; i < dim * 3 / 5; ++i) {
    util::set_bit(chunk, i, true);
  }
  return {ones, zeros, random, chunk};
}

/// Tile widths to force on the arena view: 8, 24 and 64 words (whole
/// vectors, so multi-tile at D=10000) and 0 = untiled.
constexpr std::array<std::size_t, 4> kTileWidths = {8, 24, 64, 0};

TEST(PlaneArenaTest, ArenaKernelMatchesRowMajorEveryIsa) {
  util::Xoshiro256 rng(4);
  for (std::size_t dim : {63u, 64u, 65u, 10000u}) {
    const std::size_t planes = 7;
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(planes, dim, rng, sources);

    std::vector<hv::BinVec> queries_store;
    std::vector<const std::uint64_t*> queries;
    // 13 queries: exercises the 8-, 4-, and single-query group rims.
    for (std::size_t q = 0; q < 13; ++q) {
      queries_store.push_back(hv::BinVec::random(dim, rng));
    }
    for (const auto& q : queries_store) queries.push_back(q.words().data());
    const auto all_ones = test_masks(dim, rng)[0];
    std::vector<std::uint32_t> want;
    for (const auto& q : queries_store) {
      for (const auto& plane : sources) {
        want.push_back(ref_distance(q, plane, all_ones, dim));
      }
    }

    for (const auto isa : kAllIsas) {
      const auto* ops = kernels::ops_for(isa);
      if (ops == nullptr) continue;
      for (const std::size_t tile : kTileWidths) {
        auto view = arena.view();
        view.tile_words = tile;
        std::vector<std::uint32_t> got(queries.size() * planes, 0xbeef);
        ops->hamming_matrix_arena(queries.data(), queries.size(), view,
                                  got.data());
        EXPECT_EQ(got, want) << kernels::isa_name(isa) << " dim " << dim
                             << " tile " << tile;
      }
    }
  }
}

TEST(PlaneArenaTest, MaskedArenaKernelMatchesRowMajorEveryIsa) {
  util::Xoshiro256 rng(5);
  for (std::size_t dim : {63u, 64u, 65u, 10000u}) {
    const std::size_t planes = 5;
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(planes, dim, rng, sources);

    std::vector<hv::BinVec> queries_store;
    std::vector<const std::uint64_t*> queries;
    for (std::size_t q = 0; q < 9; ++q) {
      queries_store.push_back(hv::BinVec::random(dim, rng));
    }
    for (const auto& q : queries_store) queries.push_back(q.words().data());

    for (const auto& mask : test_masks(dim, rng)) {
      std::vector<std::uint32_t> want;
      for (const auto& q : queries_store) {
        for (const auto& plane : sources) {
          want.push_back(ref_distance(q, plane, mask, dim));
        }
      }
      for (const auto isa : kAllIsas) {
        const auto* ops = kernels::ops_for(isa);
        if (ops == nullptr) continue;
        for (const std::size_t tile : kTileWidths) {
          auto view = arena.view();
          view.tile_words = tile;
          std::vector<std::uint32_t> got(queries.size() * planes, 2);
          ops->hamming_matrix_arena_masked(queries.data(), queries.size(),
                                           view, mask.data(), got.data());
          EXPECT_EQ(got, want) << kernels::isa_name(isa) << " dim " << dim
                               << " tile " << tile;
        }
      }
    }
  }
}

// ---- copy/move ----------------------------------------------------------

TEST(PlaneArenaTest, CopyIsDeepAndPreservesGeometry) {
  util::Xoshiro256 rng(6);
  std::vector<hv::BinVec> sources;
  const auto arena = make_arena(4, 10000, rng, sources);

  mem::PlaneArena copy(arena);
  ASSERT_EQ(copy.num_planes(), arena.num_planes());
  EXPECT_EQ(copy.stride_words(), arena.stride_words());
  EXPECT_EQ(copy.tile_words(), arena.tile_words());
  EXPECT_NE(copy.data(), arena.data());
  hv::BinVec out;
  for (std::size_t p = 0; p < 4; ++p) {
    copy.load_plane(p, out);
    EXPECT_EQ(out, sources[p]);
  }

  // Same-geometry assignment reuses the allocation.
  std::vector<hv::BinVec> other_sources;
  const auto other = make_arena(4, 10000, rng, other_sources);
  const std::uint64_t* before = copy.data();
  copy = other;
  EXPECT_EQ(copy.data(), before);
  copy.load_plane(2, out);
  EXPECT_EQ(out, other_sources[2]);
}

TEST(PlaneArenaTest, MoveTransfersOwnership) {
  util::Xoshiro256 rng(7);
  std::vector<hv::BinVec> sources;
  auto arena = make_arena(2, 5000, rng, sources);
  const std::uint64_t* base = arena.data();

  mem::PlaneArena moved(std::move(arena));
  EXPECT_EQ(moved.data(), base);
  EXPECT_TRUE(arena.empty());  // NOLINT(bugprone-use-after-move)
  hv::BinVec out;
  moved.load_plane(1, out);
  EXPECT_EQ(out, sources[1]);
}

// ---- model storage ------------------------------------------------------

model::HdcModel random_model(std::size_t classes, std::size_t dim,
                             unsigned precision_bits, util::Xoshiro256& rng) {
  std::vector<model::ClassVector> cvs;
  for (std::size_t c = 0; c < classes; ++c) {
    model::ClassVector cv;
    for (unsigned p = 0; p < precision_bits; ++p) {
      cv.planes.push_back(hv::BinVec::random(dim, rng));
    }
    cvs.push_back(std::move(cv));
  }
  return model::HdcModel::from_planes(std::move(cvs), precision_bits);
}

/// A fresh model built from `m`'s exported planes — what the scores of a
/// model whose planes were written in place must equal.
model::HdcModel rebuild(const model::HdcModel& m) {
  std::vector<model::ClassVector> cvs;
  for (std::size_t c = 0; c < m.num_classes(); ++c) {
    cvs.push_back(m.class_vector(c));
  }
  return model::HdcModel::from_planes(std::move(cvs), m.precision_bits());
}

/// Per-bit reference scores over the dimensions set in `mask`, with the
/// model's float operation order (plane-ascending weighted sum, then one
/// division).
std::vector<double> ref_scores(const model::HdcModel& m, const hv::BinVec& q,
                               std::span<const std::uint64_t> mask,
                               std::size_t kept) {
  const unsigned bits = m.precision_bits();
  const double denom =
      static_cast<double>(kept) * static_cast<double>((1u << bits) - 1);
  std::vector<double> out;
  for (std::size_t c = 0; c < m.num_classes(); ++c) {
    const auto cv = m.class_vector(c);
    double score = 0.0;
    for (unsigned p = 0; p < bits; ++p) {
      const std::size_t matches =
          kept - ref_distance(q, cv.planes[p], mask, m.dimension());
      score += static_cast<double>(1u << p) * static_cast<double>(matches);
    }
    out.push_back(score / denom);
  }
  return out;
}

TEST(PlaneArenaModelTest, FactoriesEstablishTheArena) {
  util::Xoshiro256 rng(8);
  const auto m = random_model(6, 10000, 2, rng);
  EXPECT_EQ(m.num_classes(), 6u);
  EXPECT_EQ(m.arena().num_planes(), 12u);
  EXPECT_EQ(m.arena().dimension(), 10000u);
}

TEST(PlaneArenaModelTest, ScoresMatchPerBitReference) {
  util::Xoshiro256 rng(9);
  for (unsigned precision : {1u, 3u}) {
    const auto m = random_model(5, 10000, precision, rng);
    const auto all_ones = test_masks(10000, rng)[0];
    std::vector<hv::BinVec> queries;
    // 70 queries: crosses the arena block's 8/4/1 group rims.
    for (int q = 0; q < 70; ++q) {
      queries.push_back(hv::BinVec::random(10000, rng));
    }
    std::vector<const hv::BinVec*> ptrs;
    for (const auto& q : queries) ptrs.push_back(&q);

    model::ScoreWorkspace ws;
    m.scores_batch(ptrs, ws);
    const auto pred = m.predict_batch(queries, 1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto want = ref_scores(m, queries[i], all_ones, 10000);
      const std::vector<double> got(ws.scores.begin() + i * 5,
                                    ws.scores.begin() + (i + 1) * 5);
      EXPECT_EQ(got, want) << "precision " << precision << " query " << i;
      EXPECT_EQ(m.scores(queries[i]), want);
      EXPECT_EQ(pred[i], m.predict(queries[i]));
    }
  }
}

TEST(PlaneArenaModelTest, MaskedScoresMatchPerBitReference) {
  util::Xoshiro256 rng(10);
  const auto m = random_model(4, 10000, 1, rng);
  std::vector<hv::BinVec> queries;
  for (int q = 0; q < 9; ++q) queries.push_back(hv::BinVec::random(10000, rng));
  std::vector<const hv::BinVec*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  for (const auto& mask : test_masks(10000, rng)) {
    std::size_t kept = 0;
    for (const auto w : mask) kept += std::popcount(w);
    model::ScoreWorkspace ws;
    m.scores_batch_masked(ptrs, mask, kept, ws);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::vector<double> got(ws.scores.begin() + i * 4,
                                    ws.scores.begin() + (i + 1) * 4);
      if (kept == 0) {
        EXPECT_EQ(got, std::vector<double>(4, 0.0));
      } else {
        EXPECT_EQ(got, ref_scores(m, queries[i], mask, kept)) << "query " << i;
      }
    }
  }
}

TEST(PlaneArenaModelTest, FaultsThroughMemoryRegionsScoreImmediately) {
  util::Xoshiro256 rng(11);
  auto m = random_model(3, 4000, 2, rng);
  const auto query = hv::BinVec::random(4000, rng);
  const auto clean_scores = m.scores(query);

  // Region contract: one region per plane, class-major / plane-minor,
  // covering exactly the plane's live words.
  auto regions = m.memory_regions();
  ASSERT_EQ(regions.size(), 6u);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < 2; ++p) {
      const auto& r = regions[c * 2 + p];
      EXPECT_EQ(r.name,
                "class" + std::to_string(c) + "/plane" + std::to_string(p));
      EXPECT_EQ(r.bytes.size(), util::words_for_bits(4000) * 8);
      EXPECT_EQ(static_cast<const void*>(r.bytes.data()),
                static_cast<const void*>(m.plane_words(c, p).data()));
    }
  }

  // Flip a quarter of class 1's plane-0 bits: no sync step exists, so the
  // very next score sees the damage...
  for (std::size_t bit = 0; bit < 4000; bit += 4) {
    util::flip_bit(regions[2].bytes, bit);
  }
  const auto damaged_scores = m.scores(query);
  EXPECT_NE(damaged_scores, clean_scores);
  EXPECT_EQ(damaged_scores[0], clean_scores[0]);
  EXPECT_EQ(damaged_scores[2], clean_scores[2]);

  // ...and every scoring path agrees with a model rebuilt from the damaged
  // planes.
  const auto rebuilt = rebuild(m);
  EXPECT_EQ(damaged_scores, rebuilt.scores(query));
  const std::vector<const hv::BinVec*> ptrs = {&query};
  model::ScoreWorkspace ws, rebuilt_ws;
  m.scores_batch(ptrs, ws);
  rebuilt.scores_batch(ptrs, rebuilt_ws);
  EXPECT_EQ(ws.scores, rebuilt_ws.scores);
  EXPECT_EQ(ws.scores, damaged_scores);
}

TEST(PlaneArenaModelTest, RepairThroughPlaneWordsScoresImmediately) {
  util::Xoshiro256 rng(12);
  auto m = random_model(3, 10000, 1, rng);
  const auto before = m.class_vector(2).planes[0];

  // In-place repair of bits [3200, 4800) of class 2, plane 0 — the
  // recovery engine's pattern.
  const auto words = m.mutable_plane_words(2, 0);
  for (std::size_t bit = 3200; bit < 4800; ++bit) {
    if (rng.next() & 1) util::flip_bit(words, bit);
  }
  const auto after = m.class_vector(2).planes[0];
  EXPECT_NE(after, before);
  EXPECT_EQ(hv::hamming_range(after, before, 0, 3200), 0u);
  EXPECT_EQ(hv::hamming_range(after, before, 4800, 10000), 0u);

  const auto query = hv::BinVec::random(10000, rng);
  EXPECT_EQ(m.scores(query), rebuild(m).scores(query));
  EXPECT_EQ(m.scores(query)[2],
            static_cast<double>(10000 - hv::hamming(query, after)) / 10000.0);
}

TEST(PlaneArenaModelTest, CopyIsDeepAndIndependent) {
  util::Xoshiro256 rng(13);
  auto m = random_model(3, 4000, 1, rng);
  const model::HdcModel copy(m);
  EXPECT_NE(copy.plane_words(0, 0).data(), m.plane_words(0, 0).data());
  util::flip_bit(m.mutable_plane_words(0, 0), 7);
  EXPECT_NE(copy.class_vector(0).planes[0], m.class_vector(0).planes[0]);
  EXPECT_EQ(hv::hamming(copy.class_vector(0).planes[0],
                        m.class_vector(0).planes[0]),
            1u);

  // Same-geometry assignment reuses the destination's allocation.
  model::HdcModel assigned = random_model(3, 4000, 1, rng);
  const std::uint64_t* base = assigned.plane_words(0, 0).data();
  assigned = m;
  EXPECT_EQ(assigned.plane_words(0, 0).data(), base);
  EXPECT_EQ(assigned.class_vector(0).planes[0], m.class_vector(0).planes[0]);
}

TEST(PlaneArenaModelTest, FromPlanesRejectsRaggedInput) {
  util::Xoshiro256 rng(14);
  // Unequal plane counts.
  std::vector<model::ClassVector> ragged(2);
  ragged[0].planes.push_back(hv::BinVec::random(1000, rng));
  ragged[0].planes.push_back(hv::BinVec::random(1000, rng));
  ragged[1].planes.push_back(hv::BinVec::random(1000, rng));
  EXPECT_THROW(model::HdcModel::from_planes(ragged, 2), std::invalid_argument);
  // Plane count disagreeing with the precision.
  EXPECT_THROW(model::HdcModel::from_planes(ragged, 1), std::invalid_argument);
  // Mixed dimensions.
  std::vector<model::ClassVector> mixed(2);
  mixed[0].planes.push_back(hv::BinVec::random(1000, rng));
  mixed[1].planes.push_back(hv::BinVec::random(1001, rng));
  EXPECT_THROW(model::HdcModel::from_planes(mixed, 1), std::invalid_argument);
  // Nothing at all.
  EXPECT_THROW(model::HdcModel::from_planes({}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace robusthd
