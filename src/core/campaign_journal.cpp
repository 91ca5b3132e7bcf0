#include "core/campaign_journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <utility>

#include "common/durable_file.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;

namespace {

// A record line is kLineHead, the kind, kLineCheck, the checksum as u64_hex,
// kLineRecord, the record bytes, then "}\n".
constexpr std::string_view kLineHead = R"({"k":")";
constexpr std::string_view kLineCheck = R"(","c":")";
constexpr std::string_view kLineRecord = R"(","r":)";
constexpr std::size_t kChecksumChars = 18;  // "0x" + 16 hex digits
constexpr std::size_t kRecordOffset = kLineHead.size() + 1 +
                                      kLineCheck.size() + kChecksumChars +
                                      kLineRecord.size();

/// The checksum a record line carries for its record bytes. The length goes
/// first so a zero-padded tail cannot alias a longer record.
std::uint64_t journal_checksum(std::string_view bytes) {
  std::uint64_t h = common::hash_accumulate(common::kHashInit, bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, bytes.size() - i);
    for (std::size_t b = 0; b < n; ++b) {
      word |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[i + b]))
              << (8 * b);
    }
    h = common::hash_accumulate(h, word);
  }
  return h;
}

struct RecordLine {
  char kind = 0;
  std::string_view record;
};

/// The kind and record bytes of a well-framed line whose checksum matches;
/// nullopt for a torn or corrupted line.
std::optional<RecordLine> unframe(std::string_view line) {
  if (line.size() <= kRecordOffset || !line.starts_with(kLineHead) ||
      line.back() != '}') {
    return std::nullopt;
  }
  RecordLine out;
  out.kind = line[kLineHead.size()];
  std::string_view rest = line.substr(kLineHead.size() + 1);
  if ((out.kind != 'w' && out.kind != 's') || !rest.starts_with(kLineCheck)) {
    return std::nullopt;
  }
  rest.remove_prefix(kLineCheck.size());
  std::uint64_t checksum = 0;
  if (!parse_u64_hex(std::string(rest.substr(0, kChecksumChars)), checksum)) {
    return std::nullopt;
  }
  rest.remove_prefix(kChecksumChars);
  if (!rest.starts_with(kLineRecord)) return std::nullopt;
  rest.remove_prefix(kLineRecord.size());
  rest.remove_suffix(1);
  if (journal_checksum(rest) != checksum) return std::nullopt;
  out.record = rest;
  return out;
}

/// Append the record of an intact line to `m`.
common::Status fold_record(const RecordLine& line, CampaignManifest& m) {
  VPP_ASSIGN_OR_RETURN(const common::JsonValue record,
                       common::parse_json(line.record));
  if (line.kind == 'w') {
    VPP_ASSIGN_OR_RETURN(ManifestWcdp wcdp, parse_manifest_wcdp(record));
    m.wcdp.push_back(std::move(wcdp));
  } else {
    VPP_ASSIGN_OR_RETURN(ManifestShard shard,
                         parse_manifest_shard(record, m.phase));
    m.shards.push_back(std::move(shard));
  }
  return common::Status::ok_status();
}

}  // namespace

common::Result<ManifestFile> read_manifest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{ErrorCode::kParseError,
                 "cannot read campaign manifest " + path};
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto in_file = [&path](Error&& e) {
    return std::move(e).with_context("while parsing " + path);
  };

  ManifestFile file;
  const std::size_t header_end = std::min(text.find('\n'), text.size());
  VPP_ASSIGN_OR_RETURN(
      const common::JsonValue doc,
      common::parse_json(std::string_view(text).substr(0, header_end))
          .transform_error(in_file));
  VPP_ASSIGN_OR_RETURN(file.manifest,
                       parse_campaign_manifest(doc).transform_error(in_file));

  bool records = false;
  std::size_t pos = std::min(header_end + 1, text.size());
  file.valid_bytes = pos;
  for (std::size_t line_no = 2; pos < text.size(); ++line_no) {
    const std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) break;  // the last append never finished
    const std::optional<RecordLine> line =
        unframe(std::string_view(text).substr(pos, end - pos));
    if (!line) {
      if (end + 1 == text.size()) break;  // a damaged final line is torn
      return in_file(Error{ErrorCode::kParseError,
                           "campaign manifest journal: corrupt record on "
                           "line " + std::to_string(line_no)});
    }
    VPP_RETURN_IF_ERROR(
        fold_record(*line, file.manifest).transform_error(in_file));
    records = true;
    pos = end + 1;
    file.valid_bytes = pos;
  }
  file.plain = !records && file.valid_bytes == text.size();
  return file;
}

common::Result<CampaignManifest> load_campaign_manifest(
    const std::string& path) {
  VPP_ASSIGN_OR_RETURN(ManifestFile file, read_manifest_file(path));
  return std::move(file.manifest);
}

bool write_campaign_manifest(const std::string& path,
                             const CampaignManifest& manifest) {
  return common::write_file_atomic(
      path, {campaign_manifest_json(manifest).str(), "\n"});
}

// --- ManifestJournal ---------------------------------------------------------

ManifestJournal::ManifestJournal(std::string path, JobPhase phase,
                                 const ManifestFile* existing)
    : path_(std::move(path)),
      phase_(phase),
      exists_(existing != nullptr),
      plain_(existing == nullptr || existing->plain),
      size_(existing != nullptr ? existing->valid_bytes : 0) {}

ManifestJournal::~ManifestJournal() { close(); }

ManifestJournal::ManifestJournal(ManifestJournal&& other) noexcept {
  *this = std::move(other);
}

ManifestJournal& ManifestJournal::operator=(ManifestJournal&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    phase_ = other.phase_;
    exists_ = other.exists_;
    plain_ = other.plain_;
    size_ = other.size_;
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void ManifestJournal::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Error ManifestJournal::io_error(std::string_view what) const {
  return Error{ErrorCode::kIoError,
               "campaign manifest " + path_ + ": " + std::string(what)};
}

common::Status ManifestJournal::open(const CampaignManifest& header) {
  if (fd_ >= 0) return common::Status::ok_status();
  if (!exists_) {
    const common::JsonWriter json = campaign_manifest_json(header);
    if (!common::write_file_atomic(path_, {json.str(), "\n"})) {
      return io_error("cannot create the journal");
    }
    exists_ = true;
    size_ = json.str().size() + 1;
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) return io_error("cannot open the journal");
  // Cut a torn tail, and end a document line that lacks its newline before
  // the first record goes after it.
  char last = '\n';
  const off_t size = static_cast<off_t>(size_);
  if (::ftruncate(fd_, size) != 0 ||
      (size > 0 && ::pread(fd_, &last, 1, size - 1) != 1) ||
      (last != '\n' && !common::pwrite_all(fd_, "\n", size_))) {
    close();
    return io_error("cannot truncate the torn tail");
  }
  if (last != '\n') ++size_;
  return common::Status::ok_status();
}

common::Status ManifestJournal::append(const ManifestWcdp& record) {
  common::JsonWriter json;
  manifest_wcdp_json(json, record);
  return append_line('w', json.str());
}

common::Status ManifestJournal::append(const ManifestShard& record) {
  common::JsonWriter json;
  manifest_shard_json(json, record, phase_);
  return append_line('s', json.str());
}

common::Status ManifestJournal::append_line(char kind,
                                            std::string_view record) {
  if (fd_ < 0) return io_error("append to a journal that is not open");
  std::string line;
  line.reserve(kRecordOffset + record.size() + 2);
  line += kLineHead;
  line += kind;
  line += kLineCheck;
  line += u64_hex(journal_checksum(record));
  line += kLineRecord;
  line += record;
  line += "}\n";
  if (!common::pwrite_all(fd_, line, size_) || ::fdatasync(fd_) != 0) {
    // Whatever reached the file is a torn tail for the next load; nothing
    // may be appended behind it.
    close();
    return io_error("append failed");
  }
  size_ += line.size();
  plain_ = false;
  return common::Status::ok_status();
}

common::Status ManifestJournal::compact(const CampaignManifest& canonical) {
  close();
  const common::JsonWriter json = campaign_manifest_json(canonical);
  if (!common::write_file_atomic(path_, {json.str(), "\n"})) {
    return io_error("compaction failed");
  }
  exists_ = true;
  plain_ = true;
  size_ = json.str().size() + 1;
  return common::Status::ok_status();
}

common::Result<OpenedManifest> open_campaign_manifest(
    const std::string& path, const CampaignPlan& plan, JobPhase phase,
    std::uint64_t planned_shards) {
  OpenedManifest opened;
  if (path.empty()) {
    opened.manifest = campaign_manifest_spec(plan, phase);
  } else if (std::ifstream probe(path); probe.good()) {
    VPP_ASSIGN_OR_RETURN(ManifestFile file, read_manifest_file(path));
    VPP_RETURN_IF_ERROR(
        check_manifest_plan(file.manifest, phase, plan.digest(phase)));
    opened.journal = ManifestJournal(path, phase, &file);
    opened.manifest = std::move(file.manifest);
  } else {
    opened.journal = ManifestJournal(path, phase, nullptr);
    opened.manifest = campaign_manifest_spec(plan, phase);
  }
  opened.manifest.planned_shards = planned_shards;
  return opened;
}

}  // namespace vppstudy::core
