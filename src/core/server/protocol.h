// Message layer of the repro_serve wire protocol (docs/SERVING.md).
//
// Requests are framed text (core/server/framing): a request line
// `REPRO-SERVE/1 <VERB>`, `key: value` header lines, and — for SUBMIT
// — a blank line followed by the body (one or more `--- <section>`
// delimited parts carrying .bench netlists and test-set text).
// Responses are framed JSON objects distinguished by their `"type"`
// field; this header holds the builders for every response shape so
// the daemon, the batch mode and the tests emit byte-identical JSON
// for identical results.
//
// Request parsing follows the repository's ingestion contract
// (core/status): ParseRequest is total — it never throws and reports
// *every* problem it can find as line-anchored diagnostics, so a
// malformed submission is answered with the complete list of what is
// wrong with it, not just the first finding.  Unknown verbs, unknown
// header keys and out-of-range values are all errors: the protocol is
// versioned (the request line), not lenient.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "core/status.h"

namespace retest::core::server {

/// Protocol revision this server speaks; the request line pins it.
inline constexpr int kProtocolVersion = 1;

/// What a SUBMIT asks the service to run.
enum class JobKind {
  kAtpg,      ///< RunAtpg on `netlist`.
  kFaultSim,  ///< PROOFS-simulate `tests` over `netlist`'s faults.
  kPreserve,  ///< Fig. 6 pair flow: certify `retimed` against
              ///< `netlist`, ATPG the original, map via the Theorem-4
              ///< prefix, fault-simulate the mapped set on `retimed`.
};

std::string_view ToString(JobKind kind);

/// A parsed SUBMIT: options plus the body sections, still as text
/// (the service validates the netlists through the total parser).
struct JobSpec {
  std::string name;  ///< Client label; defaults to "job".
  JobKind kind = JobKind::kAtpg;
  int priority = 0;
  int threads = 1;        ///< Engine thread budget for this job.
  long deadline_ms = 0;   ///< Caps atpg.time_budget_ms; 0 = none.
  atpg::AtpgOptions atpg; ///< Seed/style/budgets for kAtpg/kPreserve.
  std::string netlist;    ///< `--- netlist` section (.bench text).
  std::string retimed;    ///< `--- retimed` section (kPreserve).
  std::string tests;      ///< `--- tests` section (kFaultSim;
                          ///< core::TestSet::ToText format).
};

enum class Verb {
  kSubmit,  ///< Enqueue a job; answered with accepted/rejected.
  kQuery,   ///< One job's state snapshot.
  kResult,  ///< A finished job's result frame (spool-backed).
  kCancel,  ///< Cancel a queued or running job (running: preemptive).
  kPing,    ///< Liveness probe; answered with pong.
  kStats,   ///< Metrics snapshot + job counts.
};

struct Request {
  Verb verb = Verb::kPing;
  std::uint64_t id = 0;  ///< kQuery / kResult / kCancel target.
  JobSpec spec;          ///< kSubmit payload.
};

/// Parses one request payload.  Engaged exactly when `diags.ok()`;
/// diagnostics are anchored to 1-based payload lines with source
/// "request".
std::optional<Request> ParseRequest(const std::string& payload,
                                    core::DiagnosticList& diags);

/// Serializes a SUBMIT payload that ParseRequest round-trips to an
/// equivalent spec.  Every ATPG knob is emitted explicitly, so this is
/// the canonical form — the service spools it for crash recovery, and
/// clients/tests use it to build requests.
std::string BuildSubmitPayload(const JobSpec& spec);

// ---- Response builders ----------------------------------------------
//
// Each returns the complete JSON payload of one response frame.

/// Minimal JSON string escaping (shared by every builder).
std::string JsonEscape(const std::string& text);

/// `hello`: sent once per connection before any request is read.
std::string BuildHello(std::size_t max_payload, std::size_t max_queue);

/// `accepted`: SUBMIT admitted as job `id` at queue depth `depth`.
std::string BuildAccepted(std::uint64_t id, const std::string& name,
                          std::size_t depth);

/// `rejected`: SUBMIT refused.  `reason` is a stable token
/// (queue_full, draining, invalid_request, payload_too_large);
/// diagnostics (may be empty) carry the line-anchored details.
std::string BuildRejected(const std::string& reason,
                          const core::DiagnosticList& diags);

/// `error`: protocol-level failure outside SUBMIT admission
/// (bad_frame, bad_request, unknown_job, not_ready).
std::string BuildError(const std::string& reason, const std::string& detail);

/// `pong`.
std::string BuildPong();

/// `goodbye`: the server is draining; no further requests are read.
std::string BuildGoodbye();

/// One job's state line inside progress/query frames.
struct JobProgress {
  std::uint64_t id = 0;
  std::string name;
  std::string kind;
  std::string state;  ///< queued | running | done | failed | cancelled
  double queued_ms = 0;
  double run_ms = 0;
};

/// `progress`: periodic stream + QUERY answer.  `with_metrics` embeds
/// the core::metrics snapshot (the periodic ticker sends it; QUERY
/// answers omit it).
std::string BuildProgress(const std::vector<JobProgress>& jobs,
                          std::size_t queue_depth, bool with_metrics);

/// `stats`: counters snapshot + service totals.  `shed` counts queued
/// jobs dropped because their deadline_ms expired before a worker
/// picked them up (their results carry reason deadline_expired);
/// `cancelled` counts every job that finished cancelled.
std::string BuildStats(std::size_t queue_depth, std::uint64_t accepted,
                       std::uint64_t rejected, std::uint64_t completed,
                       std::uint64_t shed, std::uint64_t cancelled);

}  // namespace retest::core::server
