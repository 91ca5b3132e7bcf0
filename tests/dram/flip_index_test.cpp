// CellPhysics::build_flip_index against its definition: the top-K of a
// row's 65,536 per-cell uniforms, ranked by (u descending, bit ascending),
// with floor_u the K-th value. The build prefilters with one mask walk at
// 1 - 4K/N and falls back to a full-row heap when fewer than K cells pass;
// both must give the reference index exactly, entries and floor_u, over
// many (seed, bank, row, kind) cases. Depth 1 is where the fallback
// actually fires (P(no cell above 1 - 4/N) = e^-4), and depth 16,384
// (= N/4) leaves no prefilter at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chips/module_db.hpp"
#include "dram/physics.hpp"

namespace vppstudy::dram {
namespace {

using Entry = CellPhysics::RowFlipIndex::Entry;

struct Reference {
  std::vector<Entry> top;        ///< the top-K, in index order
  std::uint32_t prefiltered = 0;  ///< cells above 1 - 4K/N (0 if <= 0)
};

Reference reference_top_k(const CellPhysics& physics, std::uint32_t bank,
                          std::uint32_t row, CellPhysics::CellDraw what,
                          std::uint32_t top_k) {
  const double prefilter = 1.0 - 4.0 * top_k / kBitsPerRow;
  Reference ref;
  ref.top.resize(kBitsPerRow);
  for (std::uint32_t bit = 0; bit < kBitsPerRow; ++bit) {
    ref.top[bit] = {physics.cell_uniform(bank, row, bit, what), bit};
    if (prefilter > 0.0 && ref.top[bit].u > prefilter) ++ref.prefiltered;
  }
  std::partial_sort(ref.top.begin(), ref.top.begin() + top_k, ref.top.end(),
                    [](const Entry& a, const Entry& b) {
                      return a.u > b.u || (a.u == b.u && a.bit < b.bit);
                    });
  ref.top.resize(top_k);
  return ref;
}

TEST(FlipIndex, PrefilteredIndexEqualsTheFullRowReference) {
  constexpr std::uint32_t kDepths[] = {CellPhysics::kFlipIndexTopK, 64, 1, 2};
  std::uint32_t cases = 0;
  std::uint32_t fallbacks = 0;
  for (const std::uint64_t seed : {1ULL, 0x5eedULL, 977ULL, 1ULL << 40}) {
    auto profile = chips::profile_by_name("C9").value();
    profile.seed = seed;
    const CellPhysics physics(profile);
    for (std::uint32_t i = 0; i < 258; ++i) {
      const std::uint32_t bank = i % 8;
      const std::uint32_t row = 37 * i + 11;
      const auto what = i % 3 == 0 ? CellPhysics::CellDraw::kRetention
                                   : CellPhysics::CellDraw::kHammer;
      const std::uint32_t top_k = i < 256 ? kDepths[i % 4] : 16384;

      const auto index = physics.build_flip_index(bank, row, what, top_k);
      const Reference ref = reference_top_k(physics, bank, row, what, top_k);
      const auto& reference = ref.top;
      ++cases;
      if (ref.prefiltered < top_k) ++fallbacks;

      ASSERT_EQ(index.cells.size(), reference.size())
          << "seed " << seed << " case " << i;
      // The cached index holds no more than the heap ever reserved.
      EXPECT_LE(index.cells.capacity(), std::size_t{top_k} + 1)
          << "seed " << seed << " case " << i;
      for (std::size_t k = 0; k < reference.size(); ++k) {
        ASSERT_EQ(index.cells[k].bit, reference[k].bit)
            << "seed " << seed << " case " << i << " rank " << k;
        ASSERT_EQ(index.cells[k].u, reference[k].u)
            << "seed " << seed << " case " << i << " rank " << k;
      }
      EXPECT_EQ(index.floor_u, reference.back().u)
          << "seed " << seed << " case " << i;
    }
  }
  EXPECT_GE(cases, 1000u);
  // The heap fallback ran: the depth-16,384 cases always, and some depth-1
  // rows had no cell above the prefilter.
  EXPECT_GT(fallbacks, 8u);
}

TEST(FlipIndex, DepthZeroIsEmpty) {
  const CellPhysics physics(chips::profile_by_name("B3").value());
  const auto index =
      physics.build_flip_index(0, 5, CellPhysics::CellDraw::kHammer, 0);
  EXPECT_TRUE(index.cells.empty());
  EXPECT_FALSE(index.covers(0.5));
}

}  // namespace
}  // namespace vppstudy::dram
