// The campaign manifest on disk: an append-only, checksummed record journal
// that compacts into one plain document when its run finishes.
//
// Rewriting the whole manifest after every record made a campaign write
// O(n^2) bytes. The file is a journal instead:
//
//   line 1   a vppstudy-campaign-manifest/1 document: the plan spec plus
//            whatever records existed when the journal was opened
//   line 2+  one record per line, appended as work completes:
//              {"k":"w"|"s","c":"0x<16 hex digits>","r":<record>}
//            k is the record kind (WCDP prep or shard), r the record in its
//            manifest_wcdp_json / manifest_shard_json encoding, and c a
//            64-bit checksum of r's bytes: little-endian 8-byte words,
//            length first, folded through common::hash_accumulate.
//
// Durability policy (fixed, not a knob): the file is created durably (tmp,
// fsync, rename, directory fsync), and every appended line is fdatasync'ed
// before append() returns.
//
// Torn tail: a crash mid-append can damage only the last line. A final line
// without its newline, or with a bad frame or checksum, is dropped on load
// and truncated away before the next append. A bad line anywhere else is a
// typed kParseError.
//
// Compaction: a run that finishes without error rewrites the file
// atomically as one plain document in canonical order. Records are never
// superseded, so nothing else needs compacting. A plain document is a
// journal with no record lines, so every reader accepts both forms.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {

/// A manifest file as read: the document with every intact journal record
/// appended in file order, plus where the intact part of the file ends.
struct ManifestFile {
  CampaignManifest manifest;
  /// Bytes of line 1 and every intact record line; the rest is a torn tail.
  std::uint64_t valid_bytes = 0;
  /// One plain document: no record lines and no torn tail.
  bool plain = true;
};

/// Read a manifest file in either form. kParseError for an unreadable file,
/// a malformed document line, or a damaged record line that is not the last.
[[nodiscard]] common::Result<ManifestFile> read_manifest_file(
    const std::string& path);

/// The appending side of one manifest file. Its owner opens it lazily: the
/// engine on its first record, the coordinator on its first lease grant.
class ManifestJournal {
 public:
  ManifestJournal() = default;
  /// The journal at `path` for `phase`. `existing` is the file as
  /// read_manifest_file read it, or nullptr when there is no file yet.
  ManifestJournal(std::string path, JobPhase phase,
                  const ManifestFile* existing);
  ~ManifestJournal();
  ManifestJournal(ManifestJournal&& other) noexcept;
  ManifestJournal& operator=(ManifestJournal&& other) noexcept;
  ManifestJournal(const ManifestJournal&) = delete;
  ManifestJournal& operator=(const ManifestJournal&) = delete;

  /// Ready the file for appends (a no-op once open): create it with
  /// `header` as line 1 when absent, otherwise truncate a torn tail.
  [[nodiscard]] common::Status open(const CampaignManifest& header);
  /// Append one record line and fdatasync it. The journal must be open.
  [[nodiscard]] common::Status append(const ManifestWcdp& record);
  [[nodiscard]] common::Status append(const ManifestShard& record);

  /// Whether the file holds record lines or a torn tail, i.e. is not one
  /// plain document.
  [[nodiscard]] bool needs_compaction() const noexcept { return !plain_; }
  /// Rewrite the file atomically as the plain document `canonical`, and
  /// close the journal (open() reopens it).
  [[nodiscard]] common::Status compact(const CampaignManifest& canonical);

 private:
  [[nodiscard]] common::Status append_line(char kind, std::string_view record);
  [[nodiscard]] common::Error io_error(std::string_view what) const;
  void close() noexcept;

  std::string path_;
  JobPhase phase_ = JobPhase::kRowHammer;
  bool exists_ = false;
  bool plain_ = true;
  std::uint64_t size_ = 0;  ///< intact bytes; the next line starts here
  int fd_ = -1;
};

/// A campaign checkpoint opened for one run: the manifest it resumes (or a
/// fresh spec document) and the journal that appends to it.
struct OpenedManifest {
  CampaignManifest manifest;
  ManifestJournal journal;
};

/// Open the checkpoint at `path` for `phase` of `plan`, as the engine and
/// the coordinator both do before their first record. An existing file is
/// read in either form and must checkpoint this plan and phase
/// (check_manifest_plan); a missing one starts from campaign_manifest_spec.
/// An empty path yields the spec and a journal that is never opened.
/// `planned_shards` is stamped on the manifest in every case.
[[nodiscard]] common::Result<OpenedManifest> open_campaign_manifest(
    const std::string& path, const CampaignPlan& plan, JobPhase phase,
    std::uint64_t planned_shards);

}  // namespace vppstudy::core
