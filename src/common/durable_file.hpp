// Durable file writes for checkpoints. Write-to-tmp-then-rename alone is
// atomic against a killed process, but not against power loss: the kernel
// may persist the rename before the data, or neither. These helpers push
// the data and the directory entry to stable storage before returning, so a
// checkpoint that was reported written survives a power cut.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace vppstudy::common {

/// Replace `path` with the concatenated `parts` atomically and durably:
/// write `<path>.tmp`, fsync it, rename it over `path`, then fsync the
/// directory. On failure `path` keeps its previous contents.
[[nodiscard]] bool write_file_atomic(
    const std::string& path, std::initializer_list<std::string_view> parts);

/// pwrite(2) all of `data` at `offset`, retrying short writes and EINTR.
[[nodiscard]] bool pwrite_all(int fd, std::string_view data,
                              std::uint64_t offset);

}  // namespace vppstudy::common
