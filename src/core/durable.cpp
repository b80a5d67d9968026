#include "core/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

namespace retest::core {
namespace {

void FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  if (dir.empty()) dir.assign(1, '/');  // Not `= "/"`: GCC 12 -Wrestrict.
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

bool PublishDurably(int fd, const std::string& tmp, const std::string& path) {
  if (::fsync(fd) != 0) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  FsyncParentDir(path);
  return true;
}

}  // namespace retest::core
