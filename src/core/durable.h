// Durable publication of a finished file: the one "file fsync ->
// rename -> directory fsync" sequence behind the ATPG checkpoint
// journal (atpg/journal) and the serving spool (core/server/service).
#pragma once

#include <string>

namespace retest::core {

/// Publishes the fully written file `tmp` (open as `fd`) under `path`
/// so that a crash or power cut at any point leaves either the old
/// `path` or the complete new file: fsync(fd), rename(tmp, path), then
/// fsync of `path`'s directory.  Without the first fsync the rename can
/// publish a name whose bytes are still in the page cache; without the
/// second the rename itself can vanish in a power cut.  The directory
/// fsync is best-effort (some filesystems refuse it; the rename is
/// still process-crash safe).  Returns false when the file fsync or the
/// rename fails.  `fd` stays open.
bool PublishDurably(int fd, const std::string& tmp, const std::string& path);

}  // namespace retest::core
