// The benchmark's three workloads.  atpg_hitec and faultsim_long run
// in the driver's own process through the generic round loop in
// driver.cpp; preserve_served drives the real repro_serve daemon and
// has its own loop (served.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Engine threads for every in-process engine call.
inline constexpr int kEngineThreads = 2;
/// A wall budget far beyond any op, so it never binds: ops are bounded
/// by the per-fault search limits alone and repeat exactly.
inline constexpr long kNeverBindsMs = 3'600'000;
/// An end-to-end run has at least this many ops, so the 90th
/// percentile has ten samples beyond it.
inline constexpr int kMinOps = 100;
/// A measured phase stops after this long even if rounds remain.
inline constexpr double kPhaseCapS = 150;

/// An in-process workload: a repeatable set-up, the fixed op set of one
/// round, and the output checks run after the timed loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Prepares every input; the driver times it and may repeat it.
  virtual void Setup() = 0;
  /// The op set of one round (valid after Setup).
  virtual std::vector<Op> Ops() = 0;
  /// A round's wall time on the reference host (4-vCPU AVX-512 KVM
  /// guest); it only converts --seconds into a round count.
  virtual double NominalRoundSeconds() const = 0;
  /// Checks the first outcome of every op against golden values,
  /// independent re-simulation and the Theorem-4 audit.
  virtual std::vector<Finding> Check(
      const std::map<std::string, Outcome>& outcomes,
      const std::map<std::string, std::string>& golden) = 0;
  /// Context members for the report (not gated), as a JSON object.
  virtual std::string Context() const { return "{}"; }
};

std::unique_ptr<Workload> MakeAtpgHitec();
std::unique_ptr<Workload> MakeFaultsimLong(std::uint64_t seed);

/// Theorem-4 audit: every fault of K' whose corresponding faults of K
/// are all detected by `original_tests` must be detected by the same
/// tests behind `pair.prefix` vectors.  `retimed_detected` holds the
/// detections of the derived set over Collapse(K').representatives.
/// Returns the number of violations.
long AuditTheorem4(const Pair& pair,
                   const retest::sim::InputSequence& original_tests,
                   const std::vector<bool>& retimed_detected);
/// K' faults the audits of this process checked (all of whose
/// corresponding K faults were detected), so a clean audit is shown to
/// be non-vacuous.
long AuditedFaults();

struct ServedOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;
  std::string work_dir;  ///< Socket and spool live here.
  std::string golden_path;
  std::string s27_path;  ///< examples/s27_like.bench, one of the job inputs.
  std::string write_golden;  ///< Appends this run's golden lines here.
};

/// Runs preserve_served and returns the raw report JSON members.
std::string RunServed(const ServedOptions& options, bool& ok);

}  // namespace perfbench
