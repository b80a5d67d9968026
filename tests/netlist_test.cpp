#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "netlist/bench_io.h"
#include "netlist/builder.h"
#include "netlist/check.h"
#include "netlist/circuit.h"

namespace retest::netlist {
namespace {

TEST(Circuit, AddAndLookup) {
  Circuit circuit("c");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  const NodeId b = circuit.Add(NodeKind::kInput, "b");
  const NodeId g = circuit.Add(NodeKind::kAnd, "g", {a, b});
  circuit.Add(NodeKind::kOutput, "z", {g});

  EXPECT_EQ(circuit.size(), 4);
  EXPECT_EQ(circuit.Find("g"), g);
  EXPECT_EQ(circuit.Find("nope"), kNoNode);
  EXPECT_EQ(circuit.num_inputs(), 2);
  EXPECT_EQ(circuit.num_outputs(), 1);
  EXPECT_EQ(circuit.num_gates(), 1);
  EXPECT_EQ(circuit.node(g).fanin.size(), 2u);
}

TEST(Circuit, FanoutMaintained) {
  Circuit circuit("c");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  const NodeId g1 = circuit.Add(NodeKind::kBuf, "g1", {a});
  const NodeId g2 = circuit.Add(NodeKind::kBuf, "g2", {a});
  EXPECT_EQ(circuit.node(a).fanout.size(), 2u);
  circuit.Rewire(g2, 0, g1);
  EXPECT_EQ(circuit.node(a).fanout.size(), 1u);
  EXPECT_EQ(circuit.node(g1).fanout.size(), 1u);
}

TEST(Circuit, DuplicatePinFanout) {
  Circuit circuit("c");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  circuit.Add(NodeKind::kAnd, "g", {a, a});
  // One fanout entry per connected pin.
  EXPECT_EQ(circuit.node(a).fanout.size(), 2u);
}

TEST(Circuit, RejectsDuplicateNames) {
  Circuit circuit("c");
  circuit.Add(NodeKind::kInput, "a");
  EXPECT_THROW(circuit.Add(NodeKind::kInput, "a"), std::invalid_argument);
}

TEST(Circuit, RejectsEmptyName) {
  Circuit circuit("c");
  EXPECT_THROW(circuit.Add(NodeKind::kInput, ""), std::invalid_argument);
}

TEST(Circuit, FreshNameAvoidsCollisions) {
  Circuit circuit("c");
  circuit.Add(NodeKind::kInput, "n");
  circuit.Add(NodeKind::kInput, "n_0");
  EXPECT_EQ(circuit.FreshName("n"), "n_1");
  EXPECT_EQ(circuit.FreshName("fresh"), "fresh");
}

TEST(Circuit, FreshNameFillsGapsInSuffixOrder) {
  Circuit circuit("c");
  circuit.Add(NodeKind::kInput, "g");
  circuit.Add(NodeKind::kInput, "g_0");
  circuit.Add(NodeKind::kInput, "g_2");
  std::vector<std::string> added;
  for (int i = 0; i < 3; ++i) {
    const std::string name = circuit.FreshName("g");
    // A name that is not added yet is handed out again.
    EXPECT_EQ(circuit.FreshName("g"), name);
    circuit.Add(NodeKind::kInput, name);
    added.push_back(name);
  }
  EXPECT_EQ(added, (std::vector<std::string>{"g_1", "g_3", "g_4"}));
  // A copy keeps handing out names the copy has not used.
  Circuit copy = circuit;
  EXPECT_EQ(copy.FreshName("g"), "g_5");
  copy.Add(NodeKind::kInput, "g_5");
  EXPECT_EQ(copy.FreshName("g"), "g_6");
  EXPECT_EQ(circuit.FreshName("g"), "g_5");
}

TEST(Circuit, RebuildFanout) {
  Circuit circuit("c");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  circuit.Add(NodeKind::kBuf, "g", {a});
  circuit.RebuildFanout();
  EXPECT_EQ(circuit.node(a).fanout.size(), 1u);
}

TEST(NodeKind, Predicates) {
  EXPECT_TRUE(IsGate(NodeKind::kAnd));
  EXPECT_TRUE(IsGate(NodeKind::kNot));
  EXPECT_FALSE(IsGate(NodeKind::kDff));
  EXPECT_FALSE(IsGate(NodeKind::kInput));
  EXPECT_FALSE(IsGate(NodeKind::kConst0));
  EXPECT_TRUE(IsVarArity(NodeKind::kNor));
  EXPECT_FALSE(IsVarArity(NodeKind::kBuf));
  EXPECT_EQ(ToString(NodeKind::kXnor), "XNOR");
}

TEST(Builder, BuildsFeedbackCircuit) {
  Builder builder("loop");
  builder.Input("x").Dff("q");
  builder.Xor("d", {"x", "q"}).SetDffInput("q", "d").Output("z", "d");
  const Circuit circuit = builder.Build();
  EXPECT_TRUE(Check(circuit).ok());
  EXPECT_EQ(circuit.num_dffs(), 1);
}

TEST(Builder, RejectsUnknownNet) {
  Builder builder("bad");
  builder.Input("x");
  EXPECT_THROW(builder.And("g", {"x", "ghost"}), std::invalid_argument);
}

TEST(Builder, RejectsUnwiredDff) {
  Builder builder("bad");
  builder.Input("x").Dff("q");
  EXPECT_THROW(builder.Build(), std::logic_error);
}

TEST(Builder, RejectsNonDffSetInput) {
  Builder builder("bad");
  builder.Input("x").Buf("b", "x");
  EXPECT_THROW(builder.SetDffInput("b", "x"), std::invalid_argument);
}

TEST(Check, AcceptsWellFormed) {
  Builder builder("ok");
  builder.Input("x").Dff("q", "x").Output("z", "q");
  EXPECT_TRUE(Check(builder.Build()).ok());
}

TEST(Check, RejectsCombinationalCycle) {
  Circuit circuit("cyc");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  const NodeId g1 = circuit.Add(NodeKind::kOr, "g1", {a});
  const NodeId g2 = circuit.Add(NodeKind::kAnd, "g2", {g1, a});
  circuit.AddPin(g1, g2);  // g1 <- g2 <- g1: combinational loop
  EXPECT_FALSE(Check(circuit).ok());
  EXPECT_THROW(CheckOrThrow(circuit), std::runtime_error);
}

TEST(Check, AcceptsSequentialLoop) {
  Builder builder("seq");
  builder.Input("x").Dff("q");
  builder.And("g", {"x", "q"}).SetDffInput("q", "g").Output("z", "g");
  EXPECT_TRUE(Check(builder.Build()).ok());
}

TEST(Check, RejectsBadArity) {
  Circuit circuit("bad");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  const NodeId b = circuit.Add(NodeKind::kInput, "b");
  circuit.Add(NodeKind::kNot, "n", {a, b});  // NOT with two fanins
  EXPECT_FALSE(Check(circuit).ok());
}

TEST(BenchIo, RoundTrip) {
  const char* text = R"(
# demo
INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(d)
g = AND(a, q)
d = OR(g, b)
z = NOT(d)
)";
  const Circuit circuit = ReadBenchString(text, "demo");
  EXPECT_EQ(circuit.num_inputs(), 2);
  EXPECT_EQ(circuit.num_outputs(), 1);
  EXPECT_EQ(circuit.num_dffs(), 1);
  EXPECT_TRUE(Check(circuit).ok());

  const std::string written = WriteBenchString(circuit);
  const Circuit again = ReadBenchString(written, "demo2");
  EXPECT_EQ(again.num_inputs(), circuit.num_inputs());
  EXPECT_EQ(again.num_outputs(), circuit.num_outputs());
  EXPECT_EQ(again.num_dffs(), circuit.num_dffs());
  EXPECT_EQ(again.num_gates(), circuit.num_gates());
}

TEST(BenchIo, GatesInAnyOrder) {
  // d is defined after its consumer g: the reader must cope.
  const char* text = R"(
INPUT(a)
OUTPUT(g)
g = BUF(d)
d = NOT(a)
)";
  const Circuit circuit = ReadBenchString(text);
  EXPECT_TRUE(Check(circuit).ok());
  EXPECT_EQ(circuit.num_gates(), 2);
}

TEST(BenchIo, RejectsUndefinedFanin) {
  EXPECT_THROW(ReadBenchString("INPUT(a)\nz = AND(a, ghost)\n"),
               std::runtime_error);
}

TEST(BenchIo, RejectsUnknownGate) {
  EXPECT_THROW(ReadBenchString("INPUT(a)\nz = FROB(a)\n"), std::runtime_error);
}

TEST(BenchIo, RejectsCombinationalCycleInFile) {
  EXPECT_THROW(ReadBenchString("INPUT(a)\nx = AND(a, y)\ny = BUF(x)\n"),
               std::runtime_error);
}

TEST(BenchIo, ParsesConstants) {
  const Circuit circuit =
      ReadBenchString("INPUT(a)\nOUTPUT(z)\nc = CONST1\nz = AND(a, c)\n");
  EXPECT_TRUE(Check(circuit).ok());
}

TEST(BenchIo, CommentsAndBlankLines) {
  const Circuit circuit = ReadBenchString(
      "# header\n\nINPUT(a)  # trailing\n\nOUTPUT(b)\nb = NOT(a)\n");
  EXPECT_EQ(circuit.num_gates(), 1);
}

int DiagnosticsAtLine(const core::DiagnosticList& diagnostics, int line) {
  int count = 0;
  for (const core::Diagnostic& d : diagnostics) count += d.line == line;
  return count;
}

TEST(BenchIo, ReportsEveryMalformedLineWithLineNumbers) {
  // Four independent problems in one file: a garbled INPUT, an unknown
  // gate, a bad arity and an undefined fanin.  One parse must surface
  // all of them, each anchored to its 1-based line.
  const char* text =
      "INPUT(a)\n"         // 1: fine
      "INPUT a\n"          // 2: missing parentheses
      "z = FROB(a)\n"      // 3: unknown gate type
      "n = NOT(a, a)\n"    // 4: NOT takes exactly one fanin
      "g = AND(a, ghost)\n";  // 5: undefined fanin
  const BenchParseResult result = ParseBenchString(text, "bad", "bad.bench");
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.diagnostics.error_count(), 4u)
      << result.diagnostics.ToString();
  EXPECT_EQ(DiagnosticsAtLine(result.diagnostics, 2), 1);
  EXPECT_EQ(DiagnosticsAtLine(result.diagnostics, 3), 1);
  EXPECT_EQ(DiagnosticsAtLine(result.diagnostics, 4), 1);
  EXPECT_EQ(DiagnosticsAtLine(result.diagnostics, 5), 1);
  for (const core::Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.source, "bad.bench");
    EXPECT_EQ(d.code, core::StatusCode::kParseError);
  }
}

TEST(BenchIo, ReportsDuplicateDefinitionWithFirstLine) {
  const BenchParseResult result = ParseBenchString(
      "INPUT(a)\nx = NOT(a)\nx = BUF(a)\n");
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.error_count(), 1u)
      << result.diagnostics.ToString();
  EXPECT_EQ(result.diagnostics[0].line, 3);
  // The message points back at the first definition.
  EXPECT_NE(result.diagnostics[0].message.find("line 2"), std::string::npos)
      << result.diagnostics[0].message;
}

TEST(BenchIo, ReportsEveryCycleAndUndefinedFaninTogether) {
  const char* text =
      "INPUT(a)\n"
      "x = AND(a, y)\n"   // cycle 1: x <-> y
      "y = BUF(x)\n"
      "p = OR(a, q)\n"    // cycle 2: p <-> q
      "q = NOT(p)\n"
      "w = AND(a, ghost)\n";  // independent undefined fanin
  const BenchParseResult result = ParseBenchString(text);
  EXPECT_FALSE(result.ok());
  int undefined = 0;
  std::vector<int> cycle_lines;
  for (const core::Diagnostic& d : result.diagnostics) {
    if (d.message.find("cycle") != std::string::npos) {
      cycle_lines.push_back(d.line);
    }
    undefined += d.message.find("ghost") != std::string::npos;
  }
  // Every gate on either cycle is reported; the undefined fanin does
  // not suppress the cycle diagnostics (or vice versa).
  EXPECT_EQ(cycle_lines, (std::vector<int>{2, 3, 4, 5}))
      << result.diagnostics.ToString();
  EXPECT_EQ(undefined, 1) << result.diagnostics.ToString();
}

TEST(BenchIo, ThrowingWrapperListsAllProblems) {
  try {
    ReadBenchString("INPUT a\nz = FROB(b)\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(":1:"), std::string::npos) << message;
    EXPECT_NE(message.find(":2:"), std::string::npos) << message;
  }
}

TEST(BenchIo, ParseSucceedsWithEngagedCircuit) {
  const BenchParseResult result =
      ParseBenchString("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
  ASSERT_TRUE(result.ok()) << result.diagnostics.ToString();
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.circuit->num_gates(), 1);
  EXPECT_TRUE(Check(*result.circuit).ok());
}

TEST(Check, ReportsEveryProblemInOnePass) {
  Circuit circuit("multi");
  const NodeId a = circuit.Add(NodeKind::kInput, "a");
  circuit.Add(NodeKind::kNot, "n", {a, a});       // bad arity
  circuit.Add(NodeKind::kDff, "q");               // dangling DFF
  const NodeId g1 = circuit.Add(NodeKind::kOr, "g1", {a});
  const NodeId g2 = circuit.Add(NodeKind::kAnd, "g2", {g1, a});
  circuit.AddPin(g1, g2);                         // combinational cycle
  const CheckResult result = Check(circuit);
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.diagnostics.error_count(), 3u)
      << result.diagnostics.ToString();
  bool arity = false;
  bool dangling = false;
  bool cycle = false;
  for (const core::Diagnostic& d : result.diagnostics) {
    arity = arity || d.message.find("has 2 fanins") != std::string::npos;
    dangling = dangling || d.message.find("dangling DFF") != std::string::npos;
    cycle = cycle || d.message.find("cycle") != std::string::npos;
    EXPECT_EQ(d.code, core::StatusCode::kStructuralError);
  }
  EXPECT_TRUE(arity) << result.diagnostics.ToString();
  EXPECT_TRUE(dangling) << result.diagnostics.ToString();
  EXPECT_TRUE(cycle) << result.diagnostics.ToString();
}

}  // namespace
}  // namespace retest::netlist
