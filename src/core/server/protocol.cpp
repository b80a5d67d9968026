#include "core/server/protocol.h"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "core/json.h"
#include "core/metrics.h"

namespace retest::core::server {

namespace {

constexpr std::string_view kRequestSource = "request";
constexpr std::string_view kSectionPrefix = "--- ";

/// Splits off the next line (without its newline) from `rest`.
std::string_view NextLine(std::string_view& rest) {
  const std::size_t eol = rest.find('\n');
  std::string_view line = rest.substr(0, eol);
  rest = eol == std::string_view::npos ? std::string_view{}
                                       : rest.substr(eol + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Strict base-10 integer: the whole value must parse and fit.
bool ParseLong(std::string_view text, long& out) {
  if (text.empty()) return false;
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) return false;
  }
  long value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    if (value > (0x7fffffffffffffffL - (c - '0')) / 10) return false;
    value = value * 10 + (c - '0');
  }
  out = negative ? -value : value;
  return true;
}

struct HeaderContext {
  core::DiagnosticList& diags;
  int line = 0;

  void Error(const std::string& message) {
    diags.Add(StatusCode::kParseError, message, std::string(kRequestSource),
              line);
  }

  bool Long(std::string_view key, std::string_view value, long lo, long hi,
            long& out) {
    long parsed = 0;
    if (!ParseLong(value, parsed) || parsed < lo || parsed > hi) {
      Error(std::string(key) + ": expected an integer in [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
            std::string(value) + "'");
      return false;
    }
    out = parsed;
    return true;
  }

  bool Int(std::string_view key, std::string_view value, long lo, long hi,
           int& out) {
    long parsed = 0;
    if (!Long(key, value, lo, hi, parsed)) return false;
    out = static_cast<int>(parsed);
    return true;
  }
};

/// Applies one `key: value` header to the spec.  Returns false only on
/// an unknown key (the caller words that error).
bool ApplySubmitHeader(std::string_view key, std::string_view value,
                       JobSpec& spec, HeaderContext& ctx) {
  if (key == "name") {
    spec.name = std::string(value);
  } else if (key == "kind") {
    if (value == "atpg") {
      spec.kind = JobKind::kAtpg;
    } else if (value == "faultsim") {
      spec.kind = JobKind::kFaultSim;
    } else if (value == "preserve") {
      spec.kind = JobKind::kPreserve;
    } else {
      ctx.Error("kind: expected atpg, faultsim or preserve, got '" +
                std::string(value) + "'");
    }
  } else if (key == "priority") {
    ctx.Int(key, value, -1000, 1000, spec.priority);
  } else if (key == "threads") {
    ctx.Int(key, value, 1, 1024, spec.threads);
  } else if (key == "deadline-ms") {
    ctx.Long(key, value, 0, 86'400'000, spec.deadline_ms);
  } else if (key == "seed") {
    long seed = 0;
    if (ctx.Long(key, value, 0, 0x7fffffffffffffffL, seed)) {
      spec.atpg.seed = static_cast<std::uint64_t>(seed);
    }
  } else if (key == "style") {
    if (value == "forward_ila") {
      spec.atpg.style = atpg::AtpgStyle::kForwardIla;
    } else if (value == "justification") {
      spec.atpg.style = atpg::AtpgStyle::kJustification;
    } else {
      ctx.Error("style: expected forward_ila or justification, got '" +
                std::string(value) + "'");
    }
  } else if (key == "budget-ms") {
    ctx.Long(key, value, 1, 86'400'000, spec.atpg.time_budget_ms);
  } else if (key == "random-rounds") {
    ctx.Int(key, value, 0, 100'000, spec.atpg.random_rounds);
  } else if (key == "random-length-factor") {
    ctx.Int(key, value, 1, 1000, spec.atpg.random_length_factor);
  } else if (key == "random-patience") {
    ctx.Int(key, value, 1, 100'000, spec.atpg.random_patience);
  } else if (key == "backtracks-per-fault") {
    ctx.Long(key, value, 0, 1'000'000'000, spec.atpg.backtracks_per_fault);
  } else if (key == "justify-backtracks") {
    ctx.Long(key, value, 0, 1'000'000'000, spec.atpg.justify_backtracks);
  } else if (key == "justify-max-depth") {
    ctx.Int(key, value, 1, 10'000, spec.atpg.justify_max_depth);
  } else if (key == "max-frames") {
    ctx.Int(key, value, 0, 100'000, spec.atpg.max_frames);
  } else if (key == "redundancy-check") {
    if (value == "0") {
      spec.atpg.redundancy_check = false;
    } else if (value == "1") {
      spec.atpg.redundancy_check = true;
    } else {
      ctx.Error("redundancy-check: expected 0 or 1, got '" +
                std::string(value) + "'");
    }
  } else {
    return false;
  }
  return true;
}

/// Splits the body into `--- <section>` parts; a body with no leading
/// marker is entirely the netlist.
void ParseBody(std::string_view body, int first_line, JobSpec& spec,
               HeaderContext& ctx) {
  if (Trim(body).empty()) return;
  std::string_view first = body.substr(0, body.find('\n'));
  if (!first.starts_with(kSectionPrefix)) {
    spec.netlist = std::string(body);
    return;
  }
  std::string* current = nullptr;
  int line_number = first_line - 1;
  std::string_view rest = body;
  while (!rest.empty()) {
    const std::string_view line = NextLine(rest);
    ++line_number;
    if (line.starts_with(kSectionPrefix)) {
      const std::string_view section = Trim(line.substr(4));
      ctx.line = line_number;
      if (section == "netlist") {
        current = &spec.netlist;
      } else if (section == "retimed") {
        current = &spec.retimed;
      } else if (section == "tests") {
        current = &spec.tests;
      } else {
        ctx.Error("unknown body section '" + std::string(section) +
                  "' (expected netlist, retimed or tests)");
        current = nullptr;
      }
      if (current != nullptr && !current->empty()) {
        ctx.Error("duplicate body section '" + std::string(section) + "'");
      }
      continue;
    }
    if (current != nullptr) {
      current->append(line);
      current->push_back('\n');
    }
  }
}

}  // namespace

std::string_view ToString(JobKind kind) {
  switch (kind) {
    case JobKind::kAtpg:
      return "atpg";
    case JobKind::kFaultSim:
      return "faultsim";
    case JobKind::kPreserve:
      return "preserve";
  }
  return "atpg";
}

std::optional<Request> ParseRequest(const std::string& payload,
                                    core::DiagnosticList& diags) {
  Request request;
  HeaderContext ctx{diags};
  std::string_view rest = payload;

  // Request line: REPRO-SERVE/<version> <VERB>
  ctx.line = 1;
  const std::string_view request_line = Trim(NextLine(rest));
  const std::size_t space = request_line.find(' ');
  const std::string_view proto = request_line.substr(0, space);
  if (proto != "REPRO-SERVE/1") {
    ctx.Error("expected request line 'REPRO-SERVE/1 <VERB>', got '" +
              std::string(request_line) + "'");
    return std::nullopt;
  }
  const std::string_view verb =
      space == std::string_view::npos ? std::string_view{}
                                      : Trim(request_line.substr(space + 1));
  bool needs_id = false;
  if (verb == "SUBMIT") {
    request.verb = Verb::kSubmit;
  } else if (verb == "QUERY") {
    request.verb = Verb::kQuery;
    needs_id = true;
  } else if (verb == "RESULT") {
    request.verb = Verb::kResult;
    needs_id = true;
  } else if (verb == "CANCEL") {
    request.verb = Verb::kCancel;
    needs_id = true;
  } else if (verb == "PING") {
    request.verb = Verb::kPing;
  } else if (verb == "STATS") {
    request.verb = Verb::kStats;
  } else {
    ctx.Error("unknown verb '" + std::string(verb) + "'");
    return std::nullopt;
  }

  // Header lines up to the first blank line (or end of payload).
  request.spec.name = "job";
  bool saw_id = false;
  int line_number = 1;
  while (!rest.empty()) {
    const std::string_view raw = NextLine(rest);
    ++line_number;
    const std::string_view line = Trim(raw);
    if (line.empty()) break;  // Body follows.
    ctx.line = line_number;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      ctx.Error("malformed header line (expected 'key: value'): '" +
                std::string(line) + "'");
      continue;
    }
    const std::string_view key = Trim(line.substr(0, colon));
    const std::string_view value = Trim(line.substr(colon + 1));
    if (key == "id") {
      long id = 0;
      if (ctx.Long(key, value, 0, 0x7fffffffffffffffL, id)) {
        request.id = static_cast<std::uint64_t>(id);
        saw_id = true;
      }
      continue;
    }
    if (request.verb != Verb::kSubmit) {
      ctx.Error("header '" + std::string(key) + "' is only valid on SUBMIT");
      continue;
    }
    if (!ApplySubmitHeader(key, value, request.spec, ctx)) {
      ctx.Error("unknown header '" + std::string(key) + "'");
    }
  }
  if (needs_id && !saw_id) {
    ctx.line = 1;
    ctx.Error(std::string(verb) + " requires an 'id' header");
  }

  if (request.verb == Verb::kSubmit) {
    ParseBody(rest, line_number + 1, request.spec, ctx);
    if (Trim(request.spec.netlist).empty()) {
      ctx.line = 1;
      ctx.Error("SUBMIT carries no netlist (body or '--- netlist' section)");
    }
    if (request.spec.kind == JobKind::kPreserve &&
        Trim(request.spec.retimed).empty()) {
      ctx.line = 1;
      ctx.Error("preserve jobs need a '--- retimed' body section");
    }
    if (request.spec.kind == JobKind::kFaultSim &&
        Trim(request.spec.tests).empty()) {
      ctx.line = 1;
      ctx.Error("faultsim jobs need a '--- tests' body section");
    }
  } else if (!Trim(rest).empty()) {
    ctx.line = line_number;
    ctx.Error(std::string(verb) + " does not take a body");
  }

  if (!diags.ok()) return std::nullopt;
  return request;
}

std::string BuildSubmitPayload(const JobSpec& spec) {
  std::ostringstream out;
  out << "REPRO-SERVE/" << kProtocolVersion << " SUBMIT\n";
  out << "name: " << spec.name << "\n";
  out << "kind: " << ToString(spec.kind) << "\n";
  out << "priority: " << spec.priority << "\n";
  out << "threads: " << spec.threads << "\n";
  out << "deadline-ms: " << spec.deadline_ms << "\n";
  out << "seed: " << spec.atpg.seed << "\n";
  out << "style: "
      << (spec.atpg.style == atpg::AtpgStyle::kJustification ? "justification"
                                                             : "forward_ila")
      << "\n";
  out << "budget-ms: " << spec.atpg.time_budget_ms << "\n";
  out << "random-rounds: " << spec.atpg.random_rounds << "\n";
  out << "random-length-factor: " << spec.atpg.random_length_factor << "\n";
  out << "random-patience: " << spec.atpg.random_patience << "\n";
  out << "backtracks-per-fault: " << spec.atpg.backtracks_per_fault << "\n";
  out << "justify-backtracks: " << spec.atpg.justify_backtracks << "\n";
  out << "justify-max-depth: " << spec.atpg.justify_max_depth << "\n";
  out << "max-frames: " << spec.atpg.max_frames << "\n";
  out << "redundancy-check: " << (spec.atpg.redundancy_check ? 1 : 0) << "\n";
  out << "\n";
  out << "--- netlist\n" << spec.netlist;
  if (!spec.netlist.empty() && spec.netlist.back() != '\n') out << "\n";
  if (!spec.retimed.empty()) {
    out << "--- retimed\n" << spec.retimed;
    if (spec.retimed.back() != '\n') out << "\n";
  }
  if (!spec.tests.empty()) {
    out << "--- tests\n" << spec.tests;
    if (spec.tests.back() != '\n') out << "\n";
  }
  return out.str();
}

std::string BuildHello(std::size_t max_payload, std::size_t max_queue) {
  std::ostringstream out;
  out << "{\"type\": \"hello\", \"protocol\": " << kProtocolVersion
      << ", \"server\": \"repro_serve\", \"max_payload\": " << max_payload
      << ", \"max_queue\": " << max_queue << "}";
  return out.str();
}

std::string BuildAccepted(std::uint64_t id, const std::string& name,
                          std::size_t depth) {
  std::ostringstream out;
  out << "{\"type\": \"accepted\", \"id\": " << id << ", \"name\": \""
      << JsonEscape(name) << "\", \"queue_depth\": " << depth << "}";
  return out.str();
}

std::string BuildRejected(const std::string& reason,
                          const core::DiagnosticList& diags) {
  std::ostringstream out;
  out << "{\"type\": \"rejected\", \"reason\": \"" << JsonEscape(reason)
      << "\", \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& diag : diags) {
    out << (first ? "" : ", ") << '"' << JsonEscape(diag.ToString()) << '"';
    first = false;
  }
  out << "]}";
  return out.str();
}

std::string BuildError(const std::string& reason, const std::string& detail) {
  std::ostringstream out;
  out << "{\"type\": \"error\", \"reason\": \"" << JsonEscape(reason)
      << "\", \"detail\": \"" << JsonEscape(detail) << "\"}";
  return out.str();
}

std::string BuildPong() { return "{\"type\": \"pong\"}"; }

std::string BuildGoodbye() {
  return "{\"type\": \"goodbye\", \"reason\": \"draining\"}";
}

std::string BuildProgress(const std::vector<JobProgress>& jobs,
                          std::size_t queue_depth, bool with_metrics) {
  std::ostringstream out;
  out << "{\"type\": \"progress\", \"queue_depth\": " << queue_depth
      << ", \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobProgress& job = jobs[i];
    out << (i == 0 ? "" : ", ") << "{\"id\": " << job.id << ", \"name\": \""
        << JsonEscape(job.name) << "\", \"kind\": \"" << job.kind
        << "\", \"state\": \"" << job.state << "\", \"queued_ms\": ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f, \"run_ms\": %.1f}", job.queued_ms,
                  job.run_ms);
    out << buf;
  }
  out << "]";
  if (with_metrics) out << ", \"metrics\": " << metrics::ToJson(0);
  out << "}";
  return out.str();
}

std::string BuildStats(std::size_t queue_depth, std::uint64_t accepted,
                       std::uint64_t rejected, std::uint64_t completed,
                       std::uint64_t shed, std::uint64_t cancelled) {
  std::ostringstream out;
  out << "{\"type\": \"stats\", \"queue_depth\": " << queue_depth
      << ", \"accepted\": " << accepted << ", \"rejected\": " << rejected
      << ", \"completed\": " << completed << ", \"shed\": " << shed
      << ", \"cancelled\": " << cancelled
      << ", \"metrics\": " << metrics::ToJson(0) << "}";
  return out.str();
}

}  // namespace retest::core::server
