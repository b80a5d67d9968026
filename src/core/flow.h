// The paper's preservation pipeline (Section V, Table III, Fig. 6):
// certify that K' is a retiming of K (which yields the Theorem-4
// prefix), generate tests on K, prepend the prefix, and fault simulate
// the result on K'.  The served `preserve` job, the Table III driver
// and the Fig. 6 flow (RetimeForTest) all run it through PreservePair;
// see docs/ARCHITECTURE.md.
#pragma once

#include "analyze/certify.h"
#include "atpg/engine.h"
#include "core/testset.h"
#include "faultsim/proofs.h"
#include "netlist/circuit.h"

namespace retest::core {

/// Wall-clock milliseconds of each PreservePair phase.
struct PreservePhaseMs {
  double certify = 0;
  double atpg = 0;
  double derive = 0;
  double faultsim = 0;  ///< Collapsing K' plus PROOFS.
  double total = 0;
};

/// The engines' own results; phases that did not run stay default.
struct PreserveReport {
  /// The pair's certificate; its prefix_length is the Theorem-4 prefix.
  analyze::CertifyResult cert;
  atpg::AtpgResult atpg;         ///< ATPG on the original circuit K.
  TestSet derived;               ///< Prefix + ATPG tests, for K'.
  faultsim::ProofsResult mapped; ///< `derived` on the faults of K'.
  PreservePhaseMs ms;

  int prefix_length() const { return cert.certificate.prefix_length; }
};

/// Certifies (original, retimed), runs ATPG on `original`, derives the
/// prefixed test set and fault simulates it on `retimed`'s collapsed
/// fault list.  Stops after certification when the pair is refused,
/// and after ATPG when `options.stop` preempted it.  PROOFS runs with
/// `options.num_threads`.  Trace spans: `preserve.pair`,
/// `preserve.certify`, `preserve.derive` (ATPG and PROOFS keep their
/// own).
PreserveReport PreservePair(const netlist::Circuit& original,
                            const netlist::Circuit& retimed,
                            const atpg::AtpgOptions& options);

/// The register-minimized circuit and the report of (easy, hard).
struct RetimeForTestResult {
  netlist::Circuit easy;
  PreserveReport report;
};

/// Fig. 6 "retime for testability": minimizes the registers of the
/// hard-to-test `hard`, then runs PreservePair(easy, hard).
RetimeForTestResult RetimeForTest(const netlist::Circuit& hard,
                                  const atpg::AtpgOptions& atpg = {});

}  // namespace retest::core
