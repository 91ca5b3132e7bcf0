// Fuzz-campaign contract tests: the generation loop is a pure function of
// its config (bit-identical grids and populations at any --jobs count, and
// on a rerun that resumes from a completed manifest), and the fuzz manifest
// round-trips the whole config -- including corpus seeds -- through JSON.
// The CI pattern-fuzz gauntlet covers the SIGKILL variants on the shipped
// vppctl binary; these tests pin the library-level contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/fuzz_campaign.hpp"
#include "core/study.hpp"
#include "harness/pattern_fuzzer.hpp"
#include "harness/pattern_spec.hpp"

namespace vppstudy::core {
namespace {

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "fuzz_manifest_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

FuzzCampaignConfig small_config(int jobs = 1) {
  SweepConfig sweep;
  sweep.vpp_levels = {2.5, 2.1};
  sweep.sampling.chunks = 2;
  sweep.sampling.rows_per_chunk = 1;
  sweep.hammer.num_iterations = 1;

  FuzzCampaignConfig config;
  config.base.sweep = sweep;
  config.base.modules = {chips::profile_by_name("B3").value()};
  config.base.seed = 11;
  config.base.jobs = jobs;
  config.base.rows_per_shard = 2;
  config.generations = 2;
  config.fuzzer.population = 4;
  config.fuzzer.elites = 1;
  return config;
}

// Flattened comparison key: generations, then every point's module/VPP and
// every member's (hash, score), then the rendered grids.
std::string result_fingerprint(const FuzzCampaignResult& result) {
  std::string fp = "generations=" + std::to_string(result.generations) + "\n";
  for (const FuzzPopulation& point : result.points) {
    fp += point.module + "@" + std::to_string(point.vpp_mv) + ":";
    for (const harness::ScoredSpec& member : point.members) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %016llx=%.17g",
                    static_cast<unsigned long long>(member.spec.spec_hash()),
                    member.score);
      fp += buf;
    }
    fp += "\n";
  }
  for (const HammerGrid& grid : result.grids) fp += grid_csv(grid).str();
  return fp;
}

TEST(FuzzCampaignTest, ResultIsIdenticalAtAnyJobsCount) {
  auto serial = run_fuzz_campaign(small_config(/*jobs=*/1));
  ASSERT_TRUE(serial.has_value()) << serial.error().to_string();
  auto parallel = run_fuzz_campaign(small_config(/*jobs=*/3));
  ASSERT_TRUE(parallel.has_value()) << parallel.error().to_string();
  EXPECT_EQ(result_fingerprint(*serial), result_fingerprint(*parallel));
  EXPECT_EQ(serial->generations, 2u);
  ASSERT_FALSE(serial->points.empty());
  // Populations come back ranked best-first.
  for (const FuzzPopulation& point : serial->points) {
    for (std::size_t i = 1; i < point.members.size(); ++i) {
      const auto& a = point.members[i - 1];
      const auto& b = point.members[i];
      EXPECT_TRUE(a.score > b.score ||
                  (a.score == b.score &&
                   a.spec.spec_hash() < b.spec.spec_hash()))
          << "population not ranked (score desc, hash asc) at member " << i;
    }
  }
}

TEST(FuzzCampaignTest, RerunResumesFromCompletedManifest) {
  const std::string path = temp_path("rerun");
  FuzzCampaignConfig config = small_config();
  config.base.manifest_path = path;
  auto first = run_fuzz_campaign(config);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  // Second run restores every completed generation from the manifest and
  // must land on the identical result.
  auto second = run_fuzz_campaign(config);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  EXPECT_EQ(result_fingerprint(*first), result_fingerprint(*second));
  // And matches a checkpoint-free run: the manifest is an execution detail,
  // never part of the result.
  auto clean = run_fuzz_campaign(small_config());
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(result_fingerprint(*first), result_fingerprint(*clean));
  std::remove(path.c_str());
  std::remove(fuzz_generation_manifest_path(path, 0).c_str());
  std::remove(fuzz_generation_manifest_path(path, 1).c_str());
}

TEST(FuzzCampaignTest, ManifestRoundTripsConfigAndPopulations) {
  const std::string path = temp_path("roundtrip");
  FuzzCampaignConfig config = small_config();
  config.base.manifest_path = path;
  auto result = run_fuzz_campaign(config);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();

  auto manifest = load_fuzz_manifest(path);
  ASSERT_TRUE(manifest.has_value()) << manifest.error().to_string();
  EXPECT_EQ(manifest->config_hash, fuzz_config_digest(config));
  EXPECT_EQ(manifest->generations, config.generations);
  ASSERT_EQ(manifest->completed.size(), config.generations);
  // The recorded final generation holds the same scored members as the
  // result's points (the manifest keeps evolution order; the result is
  // re-ranked best-first, so compare under the result's ranking).
  const auto rank = [](const harness::ScoredSpec& a,
                       const harness::ScoredSpec& b) {
    return a.score > b.score ||
           (a.score == b.score && a.spec.spec_hash() < b.spec.spec_hash());
  };
  auto last = manifest->completed.back();
  ASSERT_EQ(last.size(), result->points.size());
  for (std::size_t p = 0; p < last.size(); ++p) {
    EXPECT_EQ(last[p].module, result->points[p].module);
    EXPECT_EQ(last[p].vpp_mv, result->points[p].vpp_mv);
    ASSERT_EQ(last[p].members.size(), result->points[p].members.size());
    std::sort(last[p].members.begin(), last[p].members.end(), rank);
    for (std::size_t m = 0; m < last[p].members.size(); ++m) {
      EXPECT_EQ(last[p].members[m].spec, result->points[p].members[m].spec);
      EXPECT_EQ(last[p].members[m].score,
                result->points[p].members[m].score);
    }
  }

  auto restored = config_from_fuzz_manifest(*manifest);
  ASSERT_TRUE(restored.has_value()) << restored.error().to_string();
  EXPECT_EQ(fuzz_config_digest(*restored), fuzz_config_digest(config));
  std::remove(path.c_str());
  std::remove(fuzz_generation_manifest_path(path, 0).c_str());
  std::remove(fuzz_generation_manifest_path(path, 1).c_str());
}

TEST(FuzzCampaignTest, CorpusSeedsFoldIntoDigestAndSurviveTheManifest) {
  const std::string path = temp_path("seeds");
  FuzzCampaignConfig config = small_config();
  const std::uint64_t seedless = fuzz_config_digest(config);

  harness::PatternSpec seed_spec = harness::uniform_double_sided_spec();
  seed_spec.name = "corpus-seed";
  seed_spec.aggressors[0].amplitude = 2;
  seed_spec.aggressors[1].amplitude = 2;
  config.fuzzer.seeds = {seed_spec};
  // Seeds shape generation 0, so they are part of the config identity.
  EXPECT_NE(fuzz_config_digest(config), seedless);

  config.base.manifest_path = path;
  auto result = run_fuzz_campaign(config);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  auto manifest = load_fuzz_manifest(path);
  ASSERT_TRUE(manifest.has_value()) << manifest.error().to_string();
  ASSERT_EQ(manifest->fuzzer.seeds.size(), 1u);
  EXPECT_EQ(manifest->fuzzer.seeds[0], seed_spec);
  auto restored = config_from_fuzz_manifest(*manifest);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(fuzz_config_digest(*restored), fuzz_config_digest(config));
  std::remove(path.c_str());
  std::remove(fuzz_generation_manifest_path(path, 0).c_str());
  std::remove(fuzz_generation_manifest_path(path, 1).c_str());
}

}  // namespace
}  // namespace vppstudy::core
