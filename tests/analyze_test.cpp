// Tests for src/analyze: lint passes, SCOAP measures and the retiming
// certifier (including the Theorem-4 prefix cross-check against
// core/preserve on every Table II variant).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/certify.h"
#include "analyze/lint.h"
#include "analyze/scoap.h"
#include "bench/experiments.h"
#include "core/crc32.h"
#include "core/preserve.h"
#include "netlist/bench_io.h"
#include "netlist/builder.h"
#include "netlist/circuit.h"
#include "random_circuits.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"

namespace retest {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;

int FindingsOf(const analyze::LintResult& result, const std::string& pass) {
  for (const auto& [name, count] : result.findings_per_pass) {
    if (name == pass) return count;
  }
  ADD_FAILURE() << "pass " << pass << " did not run";
  return -1;
}

/// The nodes that `pass` alone reports (the first quoted name of each
/// finding), sorted.
std::vector<std::string> NamesFoundBy(const Circuit& circuit,
                                      const std::string& pass) {
  analyze::LintOptions options;
  options.passes = {pass};
  std::vector<std::string> names;
  for (const auto& finding : analyze::RunLint(circuit, options).diagnostics) {
    const std::size_t open = finding.message.find('\'');
    const std::size_t close = finding.message.find('\'', open + 1);
    names.push_back(finding.message.substr(open + 1, close - open - 1));
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Lint passes.

TEST(LintTest, CleanCircuitHasNoFindings) {
  const auto parsed = netlist::ParseBenchString(
      "INPUT(x)\nOUTPUT(z)\n"
      "q = DFF(d)\ng = AND(x, q)\nd = OR(g, x)\nz = NOT(d)\n");
  ASSERT_TRUE(parsed.ok());
  const auto result = analyze::RunLint(*parsed.circuit);
  EXPECT_TRUE(result.clean()) << result.diagnostics.ToString();
  EXPECT_EQ(result.findings_per_pass.size(),
            analyze::AllLintPasses().size());
}

TEST(LintTest, FloatingAndUnobservableNets) {
  netlist::Builder builder("lint");
  builder.Input("a");
  builder.Not("g", "a");    // g drives only h
  builder.Not("h", "g");    // h drives nothing
  builder.Buf("y", "a");
  builder.Output("z", "y");
  const Circuit circuit = builder.Build();
  const auto result = analyze::RunLint(circuit);
  EXPECT_FALSE(result.clean());
  EXPECT_EQ(FindingsOf(result, "floating"), 1);      // h
  EXPECT_EQ(FindingsOf(result, "unobservable"), 1);  // g
  EXPECT_TRUE(
      result.diagnostics.Contains(core::StatusCode::kLintFinding));
}

TEST(LintTest, UncontrollableRegisterLoopAndXSource) {
  // q/d form a register loop no input reaches; q taints the output.
  netlist::Builder builder("lint");
  builder.Input("x");
  builder.Dff("q");
  builder.Buf("d", "q");
  builder.SetDffInput("q", "d");
  builder.And("g", {"x", "q"});
  builder.Output("z", "g");
  const Circuit circuit = builder.Build();
  const auto result = analyze::RunLint(circuit);
  EXPECT_GE(FindingsOf(result, "uncontrollable"), 2);  // q and d
  EXPECT_EQ(FindingsOf(result, "x-sources"), 1);       // z tainted by q
}

TEST(LintTest, ConstantDeadGates) {
  const auto parsed = netlist::ParseBenchString(
      "INPUT(a)\nOUTPUT(z)\n"
      "one = CONST1\n"
      "g = OR(a, one)\n"   // constant 1
      "h = NOT(g)\n"       // constant 0
      "z = AND(a, g)\n"    // NOT dead: equals a
      "z2 = BUF(h)\n"
      "OUTPUT(z2)\n");
  ASSERT_TRUE(parsed.ok());
  const auto result = analyze::RunLint(*parsed.circuit);
  // g, h and z2 evaluate to constants; z depends on a.
  EXPECT_EQ(FindingsOf(result, "const-dead"), 3);
}

// The two Sweep cases keep the circuits and names of the structural
// sweep's dead-logic and constant tests; lint's passes make those
// findings now that the sweep is gone.

TEST(Sweep, AllDeadConeIncludingRegisterLoop) {
  // A register loop q -> g_inv -> g_mix(x) -> q beside the live path
  // x -> g_live -> z: every loop node drives something, yet none
  // reaches an output, so the whole loop is unobservable.
  netlist::Builder builder("deadcone");
  builder.Input("x");
  builder.Dff("q");
  builder.Not("g_inv", "q");
  builder.And("g_mix", {"g_inv", "x"});
  builder.SetDffInput("q", "g_mix");
  builder.Buf("g_live", "x");
  builder.Output("z", "g_live");
  const Circuit loop = builder.Build();
  EXPECT_EQ(NamesFoundBy(loop, "unobservable"),
            (std::vector<std::string>{"g_inv", "g_mix", "q"}));
  EXPECT_TRUE(NamesFoundBy(loop, "floating").empty());
}

TEST(Sweep, ConstantsAtPrimaryOutputs) {
  // AND with a tied 0 and OR with a tied 1 are constant; AND(x, 1)
  // and XOR(x, 1) still follow x.
  Circuit po("const_po");
  const NodeId x = po.Add(NodeKind::kInput, "x");
  const NodeId one = po.Add(NodeKind::kConst1, "one");
  const NodeId zero = po.Add(NodeKind::kConst0, "zero");
  const NodeId and0 = po.Add(NodeKind::kAnd, "g_and0", {x, zero});
  const NodeId or1 = po.Add(NodeKind::kOr, "g_or1", {x, one});
  const NodeId keep = po.Add(NodeKind::kAnd, "g_keep", {x, one});
  const NodeId xor1 = po.Add(NodeKind::kXor, "g_x1", {x, one});
  po.Add(NodeKind::kOutput, "z_const0", {and0});
  po.Add(NodeKind::kOutput, "z_const1", {or1});
  po.Add(NodeKind::kOutput, "z_live", {keep});
  po.Add(NodeKind::kOutput, "z_inv", {xor1});
  po.Add(NodeKind::kOutput, "z_tied", {one});
  EXPECT_EQ(NamesFoundBy(po, "const-dead"),
            (std::vector<std::string>{"g_and0", "g_or1"}));
  const std::string report = analyze::RunLint(po).diagnostics.ToString();
  EXPECT_NE(report.find("'g_and0' always evaluates to 0"), std::string::npos);
  EXPECT_NE(report.find("'g_or1' always evaluates to 1"), std::string::npos);
}

TEST(LintTest, CombinationalCycleReported) {
  // Built by surgery: g = AND(a, h), h = BUF(g).  netlist::Check would
  // reject this; lint must still report it.
  Circuit circuit("cyclic");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  const NodeId g = circuit.Add(NodeKind::kAnd, "g", {a, a});
  const NodeId h = circuit.Add(NodeKind::kBuf, "h", {g});
  circuit.Rewire(g, 1, h);
  circuit.Add(NodeKind::kOutput, "z", {h});
  const auto result = analyze::RunLint(circuit);
  EXPECT_EQ(FindingsOf(result, "comb-cycles"), 1);
}

TEST(LintTest, FindingsAnchorToDefinitionLines) {
  const std::string text =
      "INPUT(a)\n"
      "OUTPUT(z)\n"
      "dead = NOT(a)\n"  // line 3: drives nothing
      "z = BUF(a)\n";
  const auto parsed = netlist::ParseBenchString(text, "t", "t.bench");
  ASSERT_TRUE(parsed.ok());
  analyze::LintOptions options;
  options.source = "t.bench";
  options.definition_lines = &parsed.definition_lines;
  const auto result = analyze::RunLint(*parsed.circuit, options);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3);
  EXPECT_EQ(result.diagnostics[0].source, "t.bench");
}

TEST(LintTest, PassSelectionAndUnknownPass) {
  netlist::Builder builder("lint");
  builder.Input("a");
  builder.Not("dead", "a");
  builder.Buf("y", "a");
  builder.Output("z", "y");
  const Circuit circuit = builder.Build();
  analyze::LintOptions options;
  options.passes = {"comb-cycles"};
  const auto result = analyze::RunLint(circuit, options);
  EXPECT_TRUE(result.clean());  // only the cycle pass ran
  EXPECT_EQ(result.findings_per_pass.size(), 1u);
  options.passes = {"no-such-pass"};
  EXPECT_THROW(analyze::RunLint(circuit, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SCOAP.

TEST(ScoapTest, AndGateHandValues) {
  const auto parsed = netlist::ParseBenchString(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n");
  ASSERT_TRUE(parsed.ok());
  const Circuit& circuit = *parsed.circuit;
  const auto scoap = analyze::ComputeScoap(circuit);
  const auto& a = scoap.of(circuit.Find("a"));
  EXPECT_EQ(a.cc0, 1);
  EXPECT_EQ(a.cc1, 1);
  EXPECT_EQ(a.co, 2);  // through AND: side input b to 1 (+1), gate (+1)
  EXPECT_EQ(a.sc0, 0);
  EXPECT_EQ(a.so, 0);
  const auto& z = scoap.of(circuit.Find("z"));
  EXPECT_EQ(z.cc1, 3);  // both inputs to 1, +1
  EXPECT_EQ(z.cc0, 2);  // cheapest input to 0, +1
  EXPECT_EQ(z.co, 0);   // feeds the output pin directly
}

TEST(ScoapTest, DffAddsOneTimeFrame) {
  const auto parsed = netlist::ParseBenchString(
      "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = NOT(q)\n");
  ASSERT_TRUE(parsed.ok());
  const Circuit& circuit = *parsed.circuit;
  const auto scoap = analyze::ComputeScoap(circuit);
  const auto& q = scoap.of(circuit.Find("q"));
  EXPECT_EQ(q.cc0, 1);  // combinational cost unchanged across the DFF
  EXPECT_EQ(q.sc0, 1);  // one frame to load
  EXPECT_EQ(q.sc1, 1);
  const auto& a = scoap.of(circuit.Find("a"));
  EXPECT_EQ(a.so, 1);  // observed one frame later
  EXPECT_EQ(a.co, 1);  // NOT adds 1, DFF adds 0 combinationally
}

TEST(ScoapTest, ConstantsAreOneSidedAndCounted) {
  const auto parsed = netlist::ParseBenchString(
      "INPUT(a)\nOUTPUT(z)\none = CONST1\nz = AND(a, one)\n");
  ASSERT_TRUE(parsed.ok());
  const Circuit& circuit = *parsed.circuit;
  const auto scoap = analyze::ComputeScoap(circuit);
  const auto& one = scoap.of(circuit.Find("one"));
  EXPECT_EQ(one.cc1, 0);
  EXPECT_GE(one.cc0, analyze::kScoapInf);
  const auto summary = analyze::Summarize(scoap);
  EXPECT_EQ(summary.uncontrollable_nets, 1);
  EXPECT_EQ(summary.num_nets, circuit.size());
}

TEST(ScoapTest, RegisterFeedbackConverges) {
  // s27-shaped feedback loop: the fixed point needs more than one
  // sweep but must terminate with finite values.
  const auto parsed = netlist::ParseBenchString(
      "INPUT(x)\nOUTPUT(z)\n"
      "q = DFF(d)\ng = AND(x, q)\nd = OR(g, x)\nz = NOT(d)\n");
  ASSERT_TRUE(parsed.ok());
  const Circuit& circuit = *parsed.circuit;
  const auto scoap = analyze::ComputeScoap(circuit);
  EXPECT_GE(scoap.iterations, 2);
  const auto summary = analyze::Summarize(scoap);
  EXPECT_EQ(summary.uncontrollable_nets, 0);
  EXPECT_EQ(summary.unobservable_nets, 0);
  EXPECT_GT(summary.sequential_cost, 0);
  const std::string json = summary.ToJson(2);
  EXPECT_NE(json.find("\"sequential_cost\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Retiming certifier.

TEST(CertifyTest, IdentityRetimingCertifies) {
  const Circuit circuit = testing::MakeRandomCircuit(7);
  const auto result = analyze::CertifyRetiming(circuit, circuit);
  ASSERT_TRUE(result.certified) << result.diagnostics.ToString();
  EXPECT_EQ(result.certificate.prefix_length, 0);
  EXPECT_EQ(result.certificate.max_backward_moves, 0);
  for (const auto& [key, lag] : result.certificate.lags) {
    EXPECT_EQ(lag, 0) << key;
  }
  const auto verify =
      analyze::VerifyCertificate(circuit, circuit, result.certificate);
  EXPECT_TRUE(verify.certified) << verify.diagnostics.ToString();
}

// Shared helper: retime `circuit` with `retiming`, certify the pair,
// and cross-check the certificate's prefix bound against core/preserve.
void ExpectCertified(const Circuit& circuit, const retime::BuildResult& build,
                     const retime::Retiming& retiming) {
  const auto applied = retime::ApplyRetiming(circuit, build, retiming);
  const auto result = analyze::CertifyRetiming(circuit, applied.circuit);
  ASSERT_TRUE(result.certified) << circuit.name() << ":\n"
                                << result.diagnostics.ToString();
  EXPECT_EQ(result.certificate.prefix_length,
            core::PrefixLength(build.graph, retiming));
  EXPECT_EQ(result.certificate.original_registers,
            circuit.num_dffs());
  EXPECT_EQ(result.certificate.retimed_registers,
            applied.circuit.num_dffs());
  const auto verify = analyze::VerifyCertificate(circuit, applied.circuit,
                                                 result.certificate);
  EXPECT_TRUE(verify.certified) << verify.diagnostics.ToString();
}

TEST(CertifyTest, AcceptsMinPeriodRetimings) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Circuit circuit = testing::MakeRandomCircuit(seed);
    const auto build = retime::BuildGraph(circuit);
    const auto min_period = retime::MinimizePeriod(build.graph);
    ExpectCertified(circuit, build, min_period.retiming);
  }
}

TEST(CertifyTest, AcceptsMinRegisterRetimings) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    const Circuit circuit = testing::MakeRandomCircuit(seed);
    const auto build = retime::BuildGraph(circuit);
    const auto minreg = retime::MinimizeRegisters(build.graph);
    ExpectCertified(circuit, build, minreg.retiming);
  }
}

TEST(CertifyTest, AcceptsRandomMixedMoveRetimings) {
  for (std::uint64_t seed = 21; seed <= 40; ++seed) {
    const Circuit circuit = testing::MakeRandomCircuit(seed);
    const auto build = retime::BuildGraph(circuit);
    const auto retiming =
        testing::MakeRandomRetiming(build.graph, seed, /*moves=*/16);
    ExpectCertified(circuit, build, retiming);
  }
}

TEST(CertifyTest, RefusesInsertedRegister) {
  for (std::uint64_t seed = 51; seed <= 58; ++seed) {
    const Circuit circuit = testing::MakeRandomCircuit(seed);
    const auto build = retime::BuildGraph(circuit);
    const auto retiming =
        testing::MakeRandomRetiming(build.graph, seed, /*moves=*/16);
    auto applied = retime::ApplyRetiming(circuit, build, retiming);
    Circuit& mutated = applied.circuit;
    // Insert one extra DFF in front of some gate input pin.
    NodeId victim = netlist::kNoNode;
    for (NodeId id = 0; id < mutated.size(); ++id) {
      if (netlist::IsGate(mutated.node(id).kind)) victim = id;
    }
    ASSERT_NE(victim, netlist::kNoNode);
    const NodeId driver = mutated.node(victim).fanin[0];
    const NodeId extra = mutated.Add(NodeKind::kDff,
                                     mutated.FreshName("mut"), {driver});
    mutated.Rewire(victim, 0, extra);
    const auto result = analyze::CertifyRetiming(circuit, mutated);
    EXPECT_FALSE(result.certified) << circuit.name();
    EXPECT_TRUE(
        result.diagnostics.Contains(core::StatusCode::kCertifyRefused));
  }
}

TEST(CertifyTest, RefusesBypassedRegister) {
  const Circuit circuit = testing::MakeRandomCircuit(61);
  const auto build = retime::BuildGraph(circuit);
  const auto min_period = retime::MinimizePeriod(build.graph);
  auto applied = retime::ApplyRetiming(circuit, build, min_period.retiming);
  Circuit& mutated = applied.circuit;
  ASSERT_GT(mutated.num_dffs(), 0);
  // Short one register out: rewire each consumer of a DFF to the DFF's
  // own driver.
  const NodeId dff = mutated.dffs().front();
  const NodeId d_input = mutated.node(dff).fanin[0];
  const std::vector<NodeId> readers = mutated.node(dff).fanout;
  for (NodeId reader : readers) {
    const auto& fanin = mutated.node(reader).fanin;
    for (size_t pin = 0; pin < fanin.size(); ++pin) {
      if (fanin[pin] == dff) {
        mutated.Rewire(reader, static_cast<int>(pin), d_input);
      }
    }
  }
  const auto result = analyze::CertifyRetiming(circuit, mutated);
  EXPECT_FALSE(result.certified);
  EXPECT_TRUE(
      result.diagnostics.Contains(core::StatusCode::kCertifyRefused));
}

TEST(CertifyTest, RefusesTamperedCertificate) {
  const Circuit circuit = testing::MakeRandomCircuit(71);
  const auto build = retime::BuildGraph(circuit);
  const auto min_period = retime::MinimizePeriod(build.graph);
  const auto applied =
      retime::ApplyRetiming(circuit, build, min_period.retiming);
  auto result = analyze::CertifyRetiming(circuit, applied.circuit);
  ASSERT_TRUE(result.certified) << result.diagnostics.ToString();
  // A certificate with one lag nudged must fail re-verification unless
  // the circuit has no retimeable logic at all.
  analyze::Certificate tampered = result.certificate;
  ASSERT_FALSE(tampered.lags.empty());
  tampered.lags.front().second += 1;
  const auto verify =
      analyze::VerifyCertificate(circuit, applied.circuit, tampered);
  EXPECT_FALSE(verify.certified);
}

TEST(CertifyTest, CertificateTextRoundTripsKeyFacts) {
  const Circuit circuit = testing::MakeRandomCircuit(81);
  const auto build = retime::BuildGraph(circuit);
  const auto minreg = retime::MinimizeRegisters(build.graph);
  const auto applied = retime::ApplyRetiming(circuit, build, minreg.retiming);
  const auto result = analyze::CertifyRetiming(circuit, applied.circuit);
  ASSERT_TRUE(result.certified) << result.diagnostics.ToString();
  const std::string text = result.certificate.ToString();
  EXPECT_NE(text.find("retiming-certificate v1"), std::string::npos);
  EXPECT_NE(text.find("prefix "), std::string::npos);
}

// Table II end-to-end: every paper variant's min-period + min-register
// retiming must certify, with the independent prefix bound agreeing
// with core/preserve and the move accounting of bench/experiments.
TEST(CertifyTest, CertifiesAllTable2Variants) {
  for (const auto& variant : bench::Table2Variants()) {
    const auto prepared = bench::PrepareVariant(variant);
    const auto result =
        analyze::CertifyRetiming(prepared.original, prepared.retimed);
    ASSERT_TRUE(result.certified)
        << variant.fsm << ":\n" << result.diagnostics.ToString();
    EXPECT_EQ(result.certificate.prefix_length,
              prepared.moves.prefix_length())
        << variant.fsm;
    EXPECT_EQ(result.certificate.prefix_length,
              core::PrefixLength(prepared.build.graph, prepared.retiming))
        << variant.fsm;
    EXPECT_EQ(result.certificate.retimed_registers,
              prepared.retimed.num_dffs())
        << variant.fsm;
    const auto verify = analyze::VerifyCertificate(
        prepared.original, prepared.retimed, result.certificate);
    EXPECT_TRUE(verify.certified)
        << variant.fsm << ":\n" << verify.diagnostics.ToString();
  }
}

// Circuit preparation is pinned byte for byte: the synthesized and
// retimed netlists and the FEAS and final lags of three Table II rows,
// recorded before FEAS gained its early exit and FreshName its
// per-stem scan start.
TEST(PreparationTest, Table2NetlistsAndLagsArePinned) {
  struct Pin {
    bench::Variant variant;
    std::uint32_t original, retimed, min_period_lags, lags;
  };
  using synth::EncodingStyle;
  using synth::ScriptStyle;
  const Pin pins[] = {
      {{"dk16", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
       2998343926u, 1154241616u, 2030311573u, 3802223866u},
      {{"s510", EncodingStyle::kCombined, ScriptStyle::kDelay},
       2919791750u, 4043743518u, 4084720940u, 1853359194u},
      {{"scf", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
       2329760356u, 2152839089u, 1979793444u, 3630813621u},
  };
  auto lags_crc = [](const std::vector<int>& lags) {
    std::string text;
    for (int lag : lags) text += std::to_string(lag) + ",";
    return core::Crc32(text);
  };
  for (const Pin& pin : pins) {
    const auto prepared = bench::PrepareVariant(pin.variant);
    const auto min_period = retime::MinimizePeriod(prepared.build.graph);
    EXPECT_EQ(core::Crc32(netlist::WriteBenchString(prepared.original)),
              pin.original)
        << pin.variant.fsm;
    EXPECT_EQ(core::Crc32(netlist::WriteBenchString(prepared.retimed)),
              pin.retimed)
        << pin.variant.fsm;
    EXPECT_EQ(lags_crc(min_period.retiming.lags), pin.min_period_lags)
        << pin.variant.fsm;
    EXPECT_EQ(lags_crc(prepared.retiming.lags), pin.lags) << pin.variant.fsm;
  }
}

}  // namespace
}  // namespace retest
