// The generation loop of the attack-pattern fuzzer.
//
// harness/pattern_fuzzer supplies the pure evolution primitives; this layer
// drives them against real (simulated) silicon. Each generation evolves one
// population per (module, VPP level) point, unions every population into a
// single pattern axis (plus the uniform double-sided reference), and runs
// that pattern x VPP x temperature grid through core::CampaignEngine -- so
// every execution amenity the engine has (checkpoint manifests, shard
// leasing, the vppd result cache) applies to fuzzing unchanged. The summed
// post-TRR flip count of a pattern's victim set at a point is its fitness
// there.
//
// Determinism: populations are pure functions of (config digest, generation)
// -- evolve_population is seeded per point and per generation -- and the
// engine's per-row stream keys fold in the pattern hash (core/axis.hpp), so
// two runs with the same config produce bit-identical populations, grids,
// and manifests at any --jobs count. The CI pattern-fuzz gauntlet asserts
// both properties, plus kill/resume byte-identity.
//
// Checkpointing is two-level. The fuzz manifest (vppstudy-fuzz-manifest/1,
// at FuzzCampaignConfig::base.manifest_path) records the config spec and
// every completed generation's scored populations; it is small and is
// rewritten durably (tmp, fsync, rename, directory fsync) up front and
// after each generation. Each generation's engine run checkpoints its own
// campaign manifest beside it at fuzz_generation_manifest_path(): an
// append-only journal, compacted when the generation's run finishes
// (core/campaign_journal.hpp). A killed campaign resumes from the pair:
// completed generations restore from the fuzz manifest without touching a
// session, the interrupted generation resumes shard-by-shard from its
// engine manifest, and the merged result is byte-identical to an
// uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"
#include "harness/pattern_fuzzer.hpp"

namespace vppstudy::core {

/// The scored population of one (module, VPP) fuzzing point after a
/// completed generation.
struct FuzzPopulation {
  std::string module;
  std::uint64_t vpp_mv = 0;
  std::vector<harness::ScoredSpec> members;
};

struct FuzzCampaignConfig {
  /// The base plan: sweep, modules, seed, extra axes (temperature is fine;
  /// `axes.patterns` must be empty -- the fuzzer owns the pattern axis), and
  /// execution knobs. `manifest_path` names the fuzz-level manifest; empty
  /// disables checkpointing for the whole campaign.
  CampaignPlan base;
  /// Evolution steps. Generation 0 evaluates the initial population (the
  /// uniform reference plus seeded random specs).
  std::uint32_t generations = 4;
  harness::FuzzerConfig fuzzer;
};

/// Hash of every result-affecting config input: the base plan's rowhammer
/// digest folded with the generation budget and fuzzer parameters. Pins a
/// fuzz manifest to its config exactly like CampaignPlan::digest pins a
/// campaign manifest.
[[nodiscard]] std::uint64_t fuzz_config_digest(const FuzzCampaignConfig& config);

/// Engine checkpoint path of generation `g`: `<base>.gen<g>.json`.
[[nodiscard]] std::string fuzz_generation_manifest_path(
    const std::string& manifest_path, std::uint32_t generation);

/// The fuzz-level checkpoint document: config hash + the full config spec
/// (the base plan rides inside a zero-shard CampaignManifest, reusing its
/// serialization and plan_from_manifest) + every completed generation's
/// scored populations, in (module, VPP level) order.
struct FuzzManifest {
  static constexpr int kVersion = 1;
  static constexpr std::string_view kSchemaPrefix = "vppstudy-fuzz-manifest/";

  int version = kVersion;
  std::uint64_t config_hash = 0;
  std::uint32_t generations = 0;  ///< planned
  harness::FuzzerConfig fuzzer;
  CampaignManifest plan;  ///< base-plan spec carrier (no wcdp, no shards)
  std::vector<std::vector<FuzzPopulation>> completed;  ///< [generation][point]
};

[[nodiscard]] common::JsonWriter fuzz_manifest_json(const FuzzManifest& m);
[[nodiscard]] common::Result<FuzzManifest> parse_fuzz_manifest(
    const common::JsonValue& doc);
[[nodiscard]] common::Result<FuzzManifest> load_fuzz_manifest(
    const std::string& path);
/// Durable atomic write (tmp, fsync, rename, directory fsync -- see
/// common/durable_file.hpp); advances the VPP_CAMPAIGN_KILL_AFTER counter
/// via campaign_checkpoint_written().
[[nodiscard]] bool write_fuzz_manifest(const std::string& path,
                                       const FuzzManifest& m);
/// Reconstruct the config a fuzz manifest was checkpointing (vppctl fuzz
/// resume works from the file alone). Execution knobs (jobs, manifest_path)
/// are left at defaults for the caller to re-choose.
[[nodiscard]] common::Result<FuzzCampaignConfig> config_from_fuzz_manifest(
    const FuzzManifest& m);

struct FuzzCampaignResult {
  std::uint32_t generations = 0;  ///< completed
  /// Final scored populations, one per (module, VPP) point in plan order,
  /// each ranked best-first by (score desc, spec_hash asc).
  std::vector<FuzzPopulation> points;
  /// The last generation's full pattern x VPP grids, one per module: every
  /// surviving spec plus the uniform reference evaluated at every point
  /// (bench/pattern_vpp_grid renders these).
  std::vector<HammerGrid> grids;
};

/// A pattern's fitness at a (module, VPP) point: its cells' summed post-TRR
/// flips (hc_first) there, across all temperatures.
[[nodiscard]] double fuzz_fitness(const std::vector<HammerGrid>& grids,
                                  const std::string& module,
                                  std::uint64_t vpp_mv,
                                  std::uint64_t pattern_hash);

/// Run (or resume) the whole campaign. Pure function of the config: same
/// config -> bit-identical result, whether run in one go, killed and
/// resumed, serial or parallel.
[[nodiscard]] common::Expected<FuzzCampaignResult> run_fuzz_campaign(
    const FuzzCampaignConfig& config);

}  // namespace vppstudy::core
