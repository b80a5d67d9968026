#include "core/status.h"

namespace retest::core {

std::string_view ToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kStructuralError: return "structural_error";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kCorruptData: return "corrupt_data";
    case StatusCode::kMismatch: return "mismatch";
    case StatusCode::kLintFinding: return "lint_finding";
    case StatusCode::kCertifyRefused: return "certify_refused";
    case StatusCode::kInternal: return "internal";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out;
  if (!source.empty()) {
    out += source;
    if (line > 0) {
      out += ':';
      out += std::to_string(line);
    }
    out += ": ";
  }
  out += retest::core::ToString(code);
  out += ": ";
  out += message;
  return out;
}

void DiagnosticList::Add(StatusCode code, std::string message,
                         std::string source, int line) {
  items_.push_back(Diagnostic{code, std::move(message), std::move(source),
                              line});
  is_note_.push_back(false);
  ++error_count_;
}

void DiagnosticList::AddNote(StatusCode code, std::string message,
                             std::string source, int line) {
  items_.push_back(Diagnostic{code, std::move(message), std::move(source),
                              line});
  is_note_.push_back(true);
}

void DiagnosticList::Append(const DiagnosticList& other) {
  items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  is_note_.insert(is_note_.end(), other.is_note_.begin(),
                  other.is_note_.end());
  error_count_ += other.error_count_;
}

bool DiagnosticList::Contains(StatusCode code) const {
  for (const Diagnostic& d : items_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string DiagnosticList::ToString() const {
  std::string out;
  for (const Diagnostic& d : items_) {
    if (!out.empty()) out += '\n';
    out += d.ToString();
  }
  return out;
}

}  // namespace retest::core
