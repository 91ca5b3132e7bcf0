// CellPhysics::RowFlipIndex against its definition: at any p it covers, an
// index marks exactly {bit : hash >= min_hash_above(1 - p)}, the cells the
// reference mask walk (cell_uniform_masks at 1 - p) selects. Thresholds are
// built from integers, so the ladder lands exactly on kept cells' hashes,
// on bucket edges and one step either side of each, at every depth a
// Module asks for (1/64, 1/32, 1/16) and over many (seed, bank, row, kind).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "chips/module_db.hpp"
#include "common/rng.hpp"
#include "dram/physics.hpp"

namespace vppstudy::dram {
namespace {

using RowBits = CellPhysics::RowBits;

constexpr double kDepths[] = {1.0 / 64, 1.0 / 32, 1.0 / 16};

/// The p whose threshold is exactly hash k << 11: min_hash_above(1 - p)
/// == k << 11 for 1 <= k < 2^53 (both 1 - p and p are exact dyadics).
double p_at(std::uint64_t k) {
  return static_cast<double>((std::uint64_t{1} << 53) - (k - 1)) * 0x1.0p-53;
}

std::uint64_t cell_hash(std::uint64_t seed, std::uint32_t bank,
                        std::uint32_t row, std::uint32_t bit,
                        CellPhysics::CellDraw what) {
  return common::hash_key(
      {seed, bank, row, bit, static_cast<std::uint64_t>(what)});
}

/// Marks `index` at p into a fresh set and checks it against the mask walk
/// bit for bit, the returned count, and that the summary words name
/// exactly the nonzero words.
void expect_exact(const CellPhysics& physics, const CellPhysics::RowFlipIndex& index,
                  std::uint32_t bank, std::uint32_t row,
                  CellPhysics::CellDraw what, double p) {
  ASSERT_TRUE(index.covers(p)) << "p " << p;
  RowBits marked;
  const std::uint32_t count = index.mark(p, marked);
  std::vector<std::uint64_t> reference(kColumnsPerRow);
  physics.cell_uniform_masks(bank, row, 0, kColumnsPerRow, what, 1.0 - p,
                             reference.data());
  std::uint32_t expected = 0;
  for (std::uint32_t w = 0; w < kColumnsPerRow; ++w) {
    ASSERT_EQ(marked.words[w], reference[w]) << "p " << p << " word " << w;
    expected += static_cast<std::uint32_t>(std::popcount(reference[w]));
    const bool summary = ((marked.nonempty[w / 64] >> (w % 64)) & 1u) != 0;
    ASSERT_EQ(summary, reference[w] != 0) << "p " << p << " word " << w;
  }
  EXPECT_EQ(count, expected) << "p " << p;
}

TEST(FlipIndex, MarksExactlyTheCellsAboveEveryCoveredThreshold) {
  std::uint32_t cases = 0;
  for (const std::uint64_t seed : {1ULL, 0x5eedULL, 1ULL << 40}) {
    auto profile = chips::profile_by_name("C9").value();
    profile.seed = seed;
    const CellPhysics physics(profile);
    for (std::uint32_t i = 0; i < 12; ++i) {
      const std::uint32_t bank = i % 8;
      const std::uint32_t row = 37 * i + 11;
      const auto what = i % 2 == 0 ? CellPhysics::CellDraw::kRetention
                                   : CellPhysics::CellDraw::kHammer;
      const double depth = kDepths[i % 3];
      const auto index = physics.build_flip_index(bank, row, what, depth);
      const std::uint64_t min_k = *common::min_hash_above(1.0 - depth) >> 11;
      EXPECT_EQ(index.depth(), depth);

      std::vector<double> ladder = {depth, depth / 2, 1.0 / 128, 1.0 / 256,
                                    1e-3, 1e-4, 1e-6, 0x1.0p-52};
      // Bucket edges: hashes 2^64 - m * 2^52 (and of a halved span, 2^51),
      // one step either side of each, within the depth.
      for (std::uint64_t m = 1; m <= 8; ++m) {
        for (const std::uint32_t span : {52u, 51u}) {
          const std::uint64_t edge_k = ((~std::uint64_t{0} - (m << span)) + 1) >> 11;
          for (const std::uint64_t k : {edge_k - 1, edge_k, edge_k + 1}) {
            if (k >= min_k) ladder.push_back(p_at(k));
          }
        }
      }
      // The depth's own threshold, and exactly at kept cells' hashes.
      ladder.push_back(p_at(min_k));
      for (const std::uint32_t bit : {0u, 4097u, 65535u}) {
        const std::uint64_t k = cell_hash(seed, bank, row, bit, what) >> 11;
        if (k >= min_k) {
          ladder.push_back(p_at(k));
          ladder.push_back(p_at(k + 1));
        }
      }
      for (const double p : ladder) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " case " << i);
        expect_exact(physics, index, bank, row, what, p);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 900u);
}

TEST(FlipIndex, CoversFlipsExactlyAtMinHash) {
  const CellPhysics physics(chips::profile_by_name("B3").value());
  for (const double depth : kDepths) {
    const auto index =
        physics.build_flip_index(2, 77, CellPhysics::CellDraw::kHammer, depth);
    const std::uint64_t min_k = *common::min_hash_above(1.0 - depth) >> 11;
    EXPECT_TRUE(index.covers(depth));
    EXPECT_TRUE(index.covers(p_at(min_k)));
    EXPECT_TRUE(index.covers(p_at(min_k + 1)));
    EXPECT_FALSE(index.covers(p_at(min_k - 1)));
    EXPECT_FALSE(index.covers(2 * depth));
    // 2 B per kept cell, and about one 2-byte offset per 16 cells.
    EXPECT_GE(index.bytes(), 2 * index.size());
    EXPECT_LE(index.bytes(), 2 * index.size() + index.size() / 4 + 64);
  }
  // Unbuilt: no reachable threshold is covered; a p with no flip at all is.
  const CellPhysics::RowFlipIndex unbuilt;
  EXPECT_EQ(unbuilt.depth(), 0.0);
  EXPECT_FALSE(unbuilt.covers(0x1.0p-52));
  EXPECT_FALSE(unbuilt.covers(1.0 / 64));
  EXPECT_TRUE(unbuilt.covers(0.0));
  RowBits marked;
  EXPECT_EQ(unbuilt.mark(0.0, marked), 0u);
}

TEST(FlipIndex, GrowthFromFirstDepthToCapKeepsAnswersEqual) {
  const CellPhysics physics(chips::profile_by_name("A5").value());
  for (const auto what :
       {CellPhysics::CellDraw::kHammer, CellPhysics::CellDraw::kRetention}) {
    std::vector<CellPhysics::RowFlipIndex> tiers;
    for (const double depth : kDepths) {
      tiers.push_back(physics.build_flip_index(1, 300, what, depth));
    }
    EXPECT_LT(tiers[0].size(), tiers[1].size());
    EXPECT_LT(tiers[1].size(), tiers[2].size());
    for (const double p : {1.0 / 64, 1.0 / 100, 1.0 / 128, 1e-3, 1e-5}) {
      RowBits first;
      const std::uint32_t count = tiers[0].mark(p, first);
      for (std::size_t t = 1; t < tiers.size(); ++t) {
        RowBits deeper;
        EXPECT_EQ(tiers[t].mark(p, deeper), count) << "p " << p;
        EXPECT_EQ(deeper.words, first.words) << "p " << p << " tier " << t;
        EXPECT_EQ(deeper.nonempty, first.nonempty) << "p " << p;
      }
    }
  }
}

TEST(FlipIndex, ChargedBitsMatchChargedValue) {
  const CellPhysics physics(chips::profile_by_name("B3").value());
  const std::uint64_t prefix = physics.row_hash_prefix(3, 901);
  for (const std::uint32_t word : {0u, 17u, 1023u}) {
    const std::uint64_t mask = 0xf0f0'0000'8000'0001ULL;
    const std::uint64_t charged = CellPhysics::charged_bits(prefix, word, mask);
    EXPECT_EQ(charged & ~mask, 0u);
    EXPECT_EQ(charged, physics.charged_words(3, 901)[word] & mask);
    for (std::uint32_t i = 0; i < 64; ++i) {
      if (((mask >> i) & 1u) == 0) continue;
      EXPECT_EQ(((charged >> i) & 1u) != 0,
                physics.charged_value(3, 901, word * 64 + i));
    }
  }
}

}  // namespace
}  // namespace vppstudy::dram
