// Manifest journal contract tests: a journal cut at any byte offset loads as
// a prefix of its records or fails with a typed kParseError, never with a
// wrong record; a campaign resumed from a cut journal matches an
// uninterrupted run byte for byte, down to the compacted manifest; and a
// corrupted line before the last is a typed error.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/export.hpp"

namespace vppstudy::core {
namespace {

using common::ErrorCode;

CampaignPlan small_plan(const std::string& manifest_path) {
  CampaignPlan plan;
  plan.sweep.vpp_levels = {2.5, 2.1, 1.7};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.sweep.hammer.num_iterations = 1;
  plan.modules = {chips::profile_by_name("B3").value(),
                  chips::profile_by_name("A0").value()};
  plan.seed = 7;
  plan.jobs = 1;
  plan.rows_per_shard = 2;
  plan.manifest_path = manifest_path;
  return plan;
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "campaign_journal_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::vector<std::string> wcdp_texts(const CampaignManifest& m) {
  std::vector<std::string> out;
  for (const ManifestWcdp& w : m.wcdp) {
    common::JsonWriter json;
    manifest_wcdp_json(json, w);
    out.push_back(json.str());
  }
  return out;
}

std::vector<std::string> shard_texts(const CampaignManifest& m) {
  std::vector<std::string> out;
  for (const ManifestShard& s : m.shards) {
    common::JsonWriter json;
    manifest_shard_json(json, s, m.phase);
    out.push_back(json.str());
  }
  return out;
}

bool is_prefix(const std::vector<std::string>& part,
               const std::vector<std::string>& whole) {
  return part.size() <= whole.size() &&
         std::equal(part.begin(), part.end(), whole.begin());
}

std::vector<std::string> grid_documents(const std::vector<HammerGrid>& grids) {
  std::vector<std::string> docs;
  for (const HammerGrid& grid : grids) {
    docs.push_back(grid_csv(grid).str());
    docs.push_back(grid_json(grid).str());
  }
  return docs;
}

/// The journal a max_new_shards budget stop leaves behind: uncompacted,
/// with both modules' WCDP preps and three shard records.
std::string budget_stopped_journal(const std::string& path) {
  std::remove(path.c_str());
  CampaignPlan plan = small_plan(path);
  plan.max_new_shards = 3;
  auto stopped = CampaignEngine(std::move(plan)).run_hammer();
  EXPECT_FALSE(stopped.has_value());
  if (!stopped.has_value()) {
    EXPECT_EQ(stopped.error().code, ErrorCode::kCancelled);
  }
  return read_file(path);
}

TEST(CampaignJournal, EveryByteCutLoadsARecordPrefixOrFailsTyped) {
  const std::string path = temp_path("cut");
  const std::string journal = budget_stopped_journal(path);
  auto full = read_manifest_file(path);
  ASSERT_TRUE(full.has_value()) << full.error().to_string();
  EXPECT_FALSE(full->plain) << "a budget stop must leave the journal as is";
  EXPECT_EQ(full->valid_bytes, journal.size());
  const std::vector<std::string> all_wcdp = wcdp_texts(full->manifest);
  const std::vector<std::string> all_shards = shard_texts(full->manifest);
  ASSERT_EQ(all_wcdp.size(), 2u);
  ASSERT_EQ(all_shards.size(), 3u);

  const std::string cut_path = temp_path("cut_copy");
  std::size_t loaded = 0;
  std::size_t last_count = 0;
  for (std::size_t len = 0; len <= journal.size(); ++len) {
    write_file(cut_path, journal.substr(0, len));
    auto cut = read_manifest_file(cut_path);
    if (!cut.has_value()) {
      // Only a cut inside the document line may fail, and only typed.
      EXPECT_EQ(cut.error().code, ErrorCode::kParseError) << "cut at " << len;
      EXPECT_EQ(loaded, 0u) << "cut at " << len
                            << " failed after a shorter cut loaded";
      continue;
    }
    ++loaded;
    const std::vector<std::string> wcdp = wcdp_texts(cut->manifest);
    const std::vector<std::string> shards = shard_texts(cut->manifest);
    EXPECT_TRUE(is_prefix(wcdp, all_wcdp)) << "cut at " << len;
    EXPECT_TRUE(is_prefix(shards, all_shards)) << "cut at " << len;
    const std::size_t count = wcdp.size() + shards.size();
    EXPECT_GE(count, last_count) << "cut at " << len;
    EXPECT_LE(cut->valid_bytes, len);
    last_count = count;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_EQ(last_count, all_wcdp.size() + all_shards.size());
  std::remove(cut_path.c_str());
  std::remove(path.c_str());
}

TEST(CampaignJournal, ResumeFromACutJournalMatchesAnUninterruptedRun) {
  // Reference: one uninterrupted run, compacted at the end.
  const std::string ref_path = temp_path("reference");
  std::remove(ref_path.c_str());
  auto expected = CampaignEngine(small_plan(ref_path)).run_hammer();
  ASSERT_TRUE(expected.has_value()) << expected.error().to_string();
  const std::string compacted = read_file(ref_path);
  ASSERT_TRUE(common::parse_json_file(ref_path).has_value())
      << "a finished run must leave one plain document";
  auto reference = read_manifest_file(ref_path);
  ASSERT_TRUE(reference.has_value());
  EXPECT_TRUE(reference->plain);

  const std::string path = temp_path("resume");
  const std::string journal = budget_stopped_journal(path);
  std::vector<std::size_t> line_ends;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (journal[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_GE(line_ends.size(), 4u);
  // Just the document line; mid-way through the first record; a record
  // boundary; a torn last record; the whole journal.
  const std::vector<std::size_t> cuts = {
      line_ends[0], line_ends[0] + 20, line_ends[2], journal.size() - 7,
      journal.size()};
  for (const std::size_t len : cuts) {
    write_file(path, journal.substr(0, len));
    auto resumed = CampaignEngine(small_plan(path)).run_hammer();
    ASSERT_TRUE(resumed.has_value())
        << "cut at " << len << ": " << resumed.error().to_string();
    EXPECT_EQ(grid_documents(*resumed), grid_documents(*expected))
        << "cut at " << len;
    EXPECT_EQ(read_file(path), compacted) << "cut at " << len;
  }
  std::remove(path.c_str());
  std::remove(ref_path.c_str());
}

TEST(CampaignJournal, CorruptLineBeforeTheLastIsATypedError) {
  const std::string path = temp_path("corrupt");
  const std::string journal = budget_stopped_journal(path);
  const std::size_t first_record = journal.find('\n') + 1;
  const std::size_t second_record = journal.find('\n', first_record) + 1;

  // One flipped byte inside the first record's payload: its checksum no
  // longer matches, and it is not the last line.
  std::string corrupt = journal;
  const std::size_t at = corrupt.find("\"module\"", first_record);
  ASSERT_LT(at, second_record);
  corrupt[at + 1] = 'M';
  write_file(path, corrupt);
  auto loaded = read_manifest_file(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, ErrorCode::kParseError);

  // The same damage on the final line is a torn tail: dropped, the rest
  // loads.
  std::string torn = journal;
  const std::size_t last = torn.rfind('\n', torn.size() - 2) + 1;
  torn[torn.find("\"module\"", last) + 1] = 'M';
  write_file(path, torn);
  auto dropped = read_manifest_file(path);
  ASSERT_TRUE(dropped.has_value()) << dropped.error().to_string();
  EXPECT_EQ(dropped->manifest.shards.size(), 2u);
  EXPECT_EQ(dropped->valid_bytes, last);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vppstudy::core
