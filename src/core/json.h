// JSON string escaping, shared by every JSON writer in the tree: the
// served response frames, the metrics snapshot, the trace file and
// the bench drivers' BENCH_*.json.
#pragma once

#include <string>

namespace retest::core {

/// `text` escaped for use between the quotes of a JSON string: `"`,
/// `\`, newline and tab get their short escapes, every other control
/// character becomes \u00XX, and all other bytes pass through.
std::string JsonEscape(const std::string& text);

}  // namespace retest::core
