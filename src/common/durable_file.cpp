#include "common/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace vppstudy::common {

namespace {

/// fsync the directory that holds `path`, making a rename onto `path`
/// durable.
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool pwrite_all(int fd, std::string_view data, std::uint64_t offset) {
  while (!data.empty()) {
    const ssize_t n = ::pwrite(fd, data.data(), data.size(),
                               static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

bool write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool written = true;
  std::uint64_t offset = 0;
  for (const std::string_view part : parts) {
    written = written && pwrite_all(fd, part, offset);
    offset += part.size();
  }
  written = written && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return sync_parent_dir(path);
}

}  // namespace vppstudy::common
