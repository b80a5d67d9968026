#include "core/flow.h"

#include <chrono>

#include "core/preserve.h"
#include "core/trace.h"
#include "fault/collapse.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/minreg.h"

namespace retest::core {

PreserveReport PreservePair(const netlist::Circuit& original,
                            const netlist::Circuit& retimed,
                            const atpg::AtpgOptions& options) {
  RETEST_TRACE_SPAN(pair_span, "preserve.pair");
  using Ms = std::chrono::duration<double, std::milli>;
  PreserveReport report;
  const auto start = std::chrono::steady_clock::now();
  auto phase = start;
  // Charges the time since the previous lap to `ms` and updates total.
  const auto lap = [&](double& ms) {
    const auto now = std::chrono::steady_clock::now();
    ms = Ms(now - phase).count();
    report.ms.total = Ms(now - start).count();
    phase = now;
  };

  {
    RETEST_TRACE_SPAN(certify_span, "preserve.certify");
    report.cert = analyze::CertifyRetiming(original, retimed);
  }
  lap(report.ms.certify);
  if (!report.cert.certified) return report;

  report.atpg = atpg::RunAtpg(original, options);
  lap(report.ms.atpg);
  if (report.atpg.preempted && options.stop != nullptr &&
      options.stop->load(std::memory_order_acquire)) {
    return report;
  }

  {
    RETEST_TRACE_SPAN(derive_span, "preserve.derive");
    TestSet original_set;
    original_set.tests = report.atpg.tests;
    report.derived = DeriveRetimedTestSet(original_set, report.prefix_length(),
                                          retimed.num_inputs());
  }
  lap(report.ms.derive);

  faultsim::ProofsOptions proofs_options;
  proofs_options.num_threads = options.num_threads;
  const fault::CollapsedFaults faults = fault::Collapse(retimed);
  report.mapped = faultsim::SimulateProofs(retimed, faults.representatives,
                                           report.derived.Concatenated(),
                                           proofs_options);
  lap(report.ms.faultsim);
  return report;
}

RetimeForTestResult RetimeForTest(const netlist::Circuit& hard,
                                  const atpg::AtpgOptions& atpg) {
  // Retime for testability: minimize registers, ignore the period.
  const retime::BuildResult build = retime::BuildGraph(hard);
  const retime::MinRegResult minreg = retime::MinimizeRegisters(build.graph);
  RetimeForTestResult result;
  result.easy = retime::ApplyRetiming(hard, build, minreg.retiming,
                                      hard.name() + ".mintest")
                    .circuit;
  // hard is a retiming of easy, so certifying (easy, hard) yields the
  // prefix that maps the easy circuit's tests onto the hard one.
  result.report = PreservePair(result.easy, hard, atpg);
  return result;
}

}  // namespace retest::core
