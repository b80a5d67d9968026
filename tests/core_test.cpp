#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analyze/certify.h"
#include "atpg/engine.h"
#include "core/crc32.h"
#include "core/flow.h"
#include "core/json.h"
#include "core/preserve.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "core/syncseq.h"
#include "core/testset.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "netlist/builder.h"
#include "retime/minreg.h"
#include "tests/paper_circuits.h"
#include "tests/random_circuits.h"

namespace retest::core {
namespace {

using netlist::Builder;
using netlist::Circuit;
using sim::FromString;
using sim::V3;

TEST(TestSetT, ConcatenationAndCounts) {
  TestSet set;
  set.tests.push_back({FromString("01"), FromString("10")});
  set.tests.push_back({FromString("11")});
  EXPECT_EQ(set.num_tests(), 2);
  EXPECT_EQ(set.total_vectors(), 3);
  const auto all = set.Concatenated();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2], FromString("11"));
}

TEST(TestSetT, TextRoundTrip) {
  TestSet set;
  set.tests.push_back({FromString("01x"), FromString("110")});
  set.tests.push_back({FromString("000")});
  const TestSet again = TestSet::FromText(set.ToText());
  ASSERT_EQ(again.num_tests(), 2);
  EXPECT_EQ(again.tests[0][0], FromString("01x"));
  EXPECT_EQ(again.tests[1][0], FromString("000"));
}

TEST(Prefix, LengthsFromRetiming) {
  const auto fig3 = retest::testing::MakeFig3Pair();
  EXPECT_EQ(PrefixLength(fig3.build.graph, fig3.retiming), 1);

  const auto fig2 = retest::testing::MakeFig2Pair();  // backward move
  EXPECT_EQ(PrefixLength(fig2.build.graph, fig2.retiming), 0);
}

TEST(Prefix, MakePrefixStyles) {
  const auto zeros = MakePrefix(2, 3, PrefixStyle::kZeros);
  ASSERT_EQ(zeros.size(), 2u);
  EXPECT_EQ(zeros[0], FromString("000"));
  const auto ones = MakePrefix(1, 3, PrefixStyle::kOnes);
  EXPECT_EQ(ones[0], FromString("111"));
  const auto random = MakePrefix(4, 3, PrefixStyle::kRandom, 99);
  EXPECT_EQ(random.size(), 4u);
  for (const auto& vector : random) {
    for (V3 v : vector) EXPECT_NE(v, V3::kX);
  }
}

TEST(Prefix, DeriveStreamHead) {
  TestSet original;
  original.tests.push_back({FromString("01")});
  const TestSet derived = DeriveRetimedTestSet(original, 2, 2);
  ASSERT_EQ(derived.num_tests(), 2);
  EXPECT_EQ(derived.tests[0].size(), 2u);  // the prefix
  EXPECT_EQ(derived.tests[1], original.tests[0]);
  EXPECT_EQ(derived.total_vectors(), 3);
}

TEST(Prefix, ZeroLengthIsIdentity) {
  TestSet original;
  original.tests.push_back({FromString("01")});
  const TestSet derived = DeriveRetimedTestSet(original, 0, 2);
  EXPECT_EQ(derived.num_tests(), original.num_tests());
  EXPECT_EQ(derived.tests[0], original.tests[0]);
}

/// Bounded ATPG whose wall-clock budget never binds, so every result
/// below is a pure function of the circuit and the seed.
atpg::AtpgOptions PreserveAtpg(int threads) {
  atpg::AtpgOptions options;
  options.random_rounds = 8;
  options.backtracks_per_fault = 200;
  options.time_budget_ms = 600'000;
  options.num_threads = threads;
  return options;
}

TEST(Preserve, Fig3PairMatchesTheHandWiredFlow) {
  // Fig. 3's forward move across the stem of q needs one prefix vector;
  // the pipeline must equal certify -> RunAtpg -> derive -> PROOFS.
  const auto fig3 = retest::testing::MakeFig3Pair();
  const Circuit original = retest::testing::MakeFig3L1();
  const Circuit& retimed = fig3.applied.circuit;
  const atpg::AtpgOptions options = PreserveAtpg(1);
  const PreserveReport report = PreservePair(original, retimed, options);
  ASSERT_TRUE(report.cert.certified) << report.cert.diagnostics.ToString();
  EXPECT_EQ(report.prefix_length(), 1);

  const auto cert = analyze::CertifyRetiming(original, retimed);
  const atpg::AtpgResult atpg_result = atpg::RunAtpg(original, options);
  TestSet original_set;
  original_set.tests = atpg_result.tests;
  const TestSet derived = DeriveRetimedTestSet(
      original_set, cert.certificate.prefix_length, retimed.num_inputs());
  faultsim::ProofsOptions proofs_options;
  proofs_options.num_threads = 1;
  const auto faults = fault::Collapse(retimed);
  const faultsim::ProofsResult mapped = faultsim::SimulateProofs(
      retimed, faults.representatives, derived.Concatenated(),
      proofs_options);

  EXPECT_EQ(report.atpg.tests, atpg_result.tests);
  EXPECT_EQ(report.derived.tests, derived.tests);
  EXPECT_EQ(report.mapped.detections, mapped.detections);
  EXPECT_EQ(report.mapped.gate_evals, mapped.gate_evals);
  EXPECT_GT(report.mapped.num_detected(), 0);
  EXPECT_GE(report.ms.total, report.ms.atpg);
}

TEST(Preserve, ReversedPairsCertifyTheInversePrefix) {
  // Mapping tests of the retimed circuit back onto the original (the
  // Fig. 6 direction) needs the retiming's backward moves: one for
  // Fig. 2's backward move, none for Fig. 3's forward move.
  const auto fig2 = retest::testing::MakeFig2Pair();
  const PreserveReport fig2_back = PreservePair(
      fig2.applied.circuit, retest::testing::MakeFig2C1(), PreserveAtpg(1));
  ASSERT_TRUE(fig2_back.cert.certified)
      << fig2_back.cert.diagnostics.ToString();
  EXPECT_EQ(fig2_back.prefix_length(), 1);
  ASSERT_FALSE(fig2_back.derived.tests.empty());
  EXPECT_EQ(fig2_back.derived.tests[0].size(), 1u);

  const auto fig3 = retest::testing::MakeFig3Pair();
  const PreserveReport fig3_back = PreservePair(
      fig3.applied.circuit, retest::testing::MakeFig3L1(), PreserveAtpg(1));
  ASSERT_TRUE(fig3_back.cert.certified);
  EXPECT_EQ(fig3_back.prefix_length(), 0);
}

TEST(Preserve, RefusedPairStopsAfterCertification) {
  const PreserveReport report =
      PreservePair(retest::testing::MakeFig3L1(),
                   retest::testing::MakeFig5N1(), PreserveAtpg(1));
  EXPECT_FALSE(report.cert.certified);
  EXPECT_FALSE(report.cert.diagnostics.ok());
  EXPECT_TRUE(report.atpg.faults.empty());
  EXPECT_TRUE(report.derived.tests.empty());
  EXPECT_TRUE(report.mapped.detections.empty());
}

TEST(Preserve, RaisedStopFlagSkipsTheMapping) {
  const auto fig3 = retest::testing::MakeFig3Pair();
  const std::atomic<bool> stop{true};
  atpg::AtpgOptions options = PreserveAtpg(1);
  options.stop = &stop;
  const PreserveReport report = PreservePair(
      retest::testing::MakeFig3L1(), fig3.applied.circuit, options);
  ASSERT_TRUE(report.cert.certified);
  EXPECT_TRUE(report.atpg.preempted);
  EXPECT_TRUE(report.derived.tests.empty());
  EXPECT_TRUE(report.mapped.detections.empty());
}

TEST(Preserve, ReportIsIdenticalAtOneAndFourThreads) {
  // Everything but wall clock and the engines' threads_used is a pure
  // function of the pair and the seed.
  retest::testing::RandomCircuitOptions shape;
  shape.num_inputs = 5;
  shape.num_dffs = 4;
  shape.num_gates = 40;
  const Circuit original = retest::testing::MakeRandomCircuit(3, shape);
  const auto build = retime::BuildGraph(original);
  const auto retiming =
      retest::testing::MakeRandomRetiming(build.graph, 3, 24);
  const Circuit retimed =
      retime::ApplyRetiming(original, build, retiming, "random.re").circuit;

  const PreserveReport one = PreservePair(original, retimed, PreserveAtpg(1));
  const PreserveReport four = PreservePair(original, retimed, PreserveAtpg(4));
  ASSERT_TRUE(one.cert.certified) << one.cert.diagnostics.ToString();
  EXPECT_EQ(one.cert.certificate.ToString(), four.cert.certificate.ToString());
  EXPECT_EQ(one.atpg.faults, four.atpg.faults);
  EXPECT_EQ(one.atpg.status, four.atpg.status);
  EXPECT_EQ(one.atpg.tests, four.atpg.tests);
  EXPECT_EQ(one.atpg.evaluations, four.atpg.evaluations);
  EXPECT_EQ(one.derived.tests, four.derived.tests);
  EXPECT_EQ(one.mapped.detections, four.mapped.detections);
  EXPECT_EQ(one.mapped.gate_evals, four.mapped.gate_evals);
  EXPECT_EQ(one.mapped.frames_evaluated, four.mapped.frames_evaluated);
  EXPECT_EQ(one.mapped.lanes, four.mapped.lanes);
}

TEST(Sync, Fig3VectorIsNotStructural) {
  // <11> synchronizes L1 functionally but NOT structurally: 3-valued
  // simulation cannot resolve q OR NOT q.
  const Circuit circuit = retest::testing::MakeFig3L1();
  EXPECT_FALSE(StructurallySynchronizes(circuit, {FromString("11")}));
}

TEST(Sync, StructuralSequencePreservedUnderRetiming) {
  // Theorem 1: a structural sync sequence for K synchronizes K'.
  Builder builder("syncable");
  builder.Input("x").Dff("q");
  builder.And("g", {"x", "q"}).SetDffInput("q", "g");
  builder.Buf("g2", "g").Buf("g3", "g2").Output("z", "g3");
  const Circuit circuit = builder.Build();
  const sim::InputSequence sequence{FromString("0")};
  ASSERT_TRUE(StructurallySynchronizes(circuit, sequence));

  // Retime backward across g2 is illegal (no regs on its out edge);
  // instead retime g backward: its out-edges... g's output feeds q and
  // g2 (a stem).  Move the register from g->q backward across g is not
  // possible either; use min-register retiming as an arbitrary legal
  // retiming instead.
  const auto build = retime::BuildGraph(circuit);
  const auto minreg = retime::MinimizeRegisters(build.graph);
  const auto applied =
      retime::ApplyRetiming(circuit, build, minreg.retiming, "sync.re");
  EXPECT_TRUE(StructurallySynchronizes(applied.circuit, sequence));
}

TEST(Sync, FindsSequenceForResettableCircuit) {
  Builder builder("resettable");
  builder.Input("x").Input("rst").Dff("q");
  builder.Not("rn", "rst");
  builder.Xor("t", {"x", "q"});
  builder.And("d", {"rn", "t"});
  builder.SetDffInput("q", "d").Output("z", "q");
  const Circuit circuit = builder.Build();
  const auto sequence = FindStructuralSyncSequence(circuit);
  ASSERT_TRUE(sequence.has_value());
  EXPECT_TRUE(StructurallySynchronizes(circuit, *sequence));
}

TEST(Sync, ReportsFailureWhenUnsynchronizable) {
  // A free-running toggle register can never be synchronized from its
  // inputs.
  Builder builder("toggle");
  builder.Input("x").Dff("q");
  builder.Not("d", "q").SetDffInput("q", "d");
  builder.And("z1", {"x", "q"}).Output("z", "z1");
  const Circuit circuit = builder.Build();
  SyncSearchOptions options;
  options.max_length = 16;
  EXPECT_FALSE(FindStructuralSyncSequence(circuit, options).has_value());
}

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  constexpr size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](int worker, size_t item) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 3);
    hits[item].fetch_add(1);
  });
  for (size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.ParallelFor(64, [&](int, size_t) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ReusableAcrossLoops) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(100, [&](int, size_t item) {
      sum.fetch_add(static_cast<long>(item));
    });
  }
  EXPECT_EQ(sum.load(), 5L * (99 * 100 / 2));
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(10,
                                [&](int, size_t item) {
                                  if (item == 3) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives the failed loop.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("REPRO_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ::setenv("REPRO_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ::unsetenv("REPRO_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(Status, DiagnosticRendersSourceLineCodeMessage) {
  Diagnostic d{StatusCode::kParseError, "missing parenthesis", "s27.bench",
               14};
  EXPECT_EQ(d.ToString(), "s27.bench:14: parse_error: missing parenthesis");
  Diagnostic bare{StatusCode::kInternal, "boom", "", 0};
  EXPECT_EQ(bare.ToString(), "internal: boom");
}

TEST(Status, ListCollectsErrorsAndNotesSeparately) {
  DiagnosticList list;
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(list.empty());
  list.Add(StatusCode::kParseError, "first", "f", 1);
  list.Add(StatusCode::kStructuralError, "second", "f", 2);
  EXPECT_FALSE(list.ok());
  EXPECT_EQ(list.error_count(), 2u);
  list.AddNote(StatusCode::kCorruptData, "a note");
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.error_count(), 2u);  // notes never flip ok()
  EXPECT_TRUE(list.Contains(StatusCode::kCorruptData));
  EXPECT_FALSE(list.Contains(StatusCode::kIoError));

  DiagnosticList other;
  other.Add(StatusCode::kIoError, "third");
  list.Append(other);
  EXPECT_EQ(list.size(), 4u);
  EXPECT_EQ(list.error_count(), 3u);
  const std::string all = list.ToString();
  EXPECT_NE(all.find("f:1: parse_error: first"), std::string::npos) << all;
  EXPECT_NE(all.find("io_error: third"), std::string::npos) << all;
}

TEST(Crc32, MatchesKnownVectorsAndChains) {
  // The IEEE reflected polynomial's classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chaining over a split must equal hashing the whole.
  const std::uint32_t first = Crc32("hello ");
  EXPECT_EQ(Crc32("world", first), Crc32("hello world"));
  EXPECT_NE(Crc32("hello worle"), Crc32("hello world"));
}

TEST(Json, EscapeShortFormsControlBytesAndPassThrough) {
  EXPECT_EQ(JsonEscape("plain.name_ms"), "plain.name_ms");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("\xc3\xa9"), "\xc3\xa9");  // UTF-8 passes through.
}

}  // namespace
}  // namespace retest::core
