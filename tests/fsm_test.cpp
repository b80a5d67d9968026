#include <gtest/gtest.h>

#include "fsm/benchmarks.h"
#include "fsm/fsm.h"

namespace retest::fsm {
namespace {

/// Two states on a 2-input, 1-output interface: state s0 moves to s1
/// on input 1-, and s1 holds on -1; every transition is specified.
Fsm ExampleFsm() {
  Fsm fsm;
  fsm.name = "example";
  fsm.num_inputs = 2;
  fsm.num_outputs = 1;
  fsm.AddState("s0");
  fsm.AddState("s1");
  fsm.reset_state = 0;
  fsm.transitions = {{"0-", 0, 0, "0"},
                     {"1-", 0, 1, "1"},
                     {"-0", 1, 0, "0"},
                     {"-1", 1, 1, "1"}};
  return fsm;
}

TEST(Validate, CatchesWidthMismatch) {
  Fsm fsm;
  fsm.name = "bad";
  fsm.num_inputs = 2;
  fsm.num_outputs = 1;
  fsm.AddState("s0");
  fsm.transitions.push_back({"0", 0, 0, "1"});  // input cube too narrow
  EXPECT_THROW(Validate(fsm), std::runtime_error);
}

TEST(Validate, CatchesNondeterminism) {
  Fsm fsm;
  fsm.name = "nd";
  fsm.num_inputs = 2;
  fsm.num_outputs = 1;
  fsm.AddState("s0");
  fsm.AddState("s1");
  fsm.transitions.push_back({"1-", 0, 0, "0"});
  fsm.transitions.push_back({"11", 0, 1, "0"});  // overlaps, different target
  EXPECT_THROW(Validate(fsm), std::runtime_error);
}

TEST(Validate, AllowsAgreeingOverlap) {
  Fsm fsm;
  fsm.name = "ok";
  fsm.num_inputs = 2;
  fsm.num_outputs = 1;
  fsm.AddState("s0");
  fsm.transitions.push_back({"1-", 0, 0, "0"});
  fsm.transitions.push_back({"11", 0, 0, "0"});
  EXPECT_NO_THROW(Validate(fsm));
}

TEST(Complete, DetectsIncompleteness) {
  Fsm fsm = ExampleFsm();
  EXPECT_NO_THROW(Validate(fsm));
  EXPECT_TRUE(IsCompletelySpecified(fsm));
  fsm.transitions.pop_back();
  EXPECT_FALSE(IsCompletelySpecified(fsm));
}

TEST(Benchmarks, TableMatchesPaper) {
  const auto& table = PaperFsmTable();
  ASSERT_EQ(table.size(), 6u);
  EXPECT_STREQ(table[0].name, "dk16");
  EXPECT_EQ(table[0].num_inputs, 3);
  EXPECT_EQ(table[0].num_outputs, 3);
  EXPECT_EQ(table[0].num_states, 27);
  EXPECT_STREQ(table[5].name, "scf");
  EXPECT_EQ(table[5].num_inputs, 27);
  EXPECT_EQ(table[5].num_outputs, 54);
  EXPECT_EQ(table[5].num_states, 121);
}

TEST(Benchmarks, GeneratedFsmsMatchInterface) {
  for (const BenchmarkInfo& info : PaperFsmTable()) {
    const Fsm fsm = MakeBenchmarkFsm(info.name);
    EXPECT_EQ(fsm.num_inputs, info.num_inputs) << info.name;
    EXPECT_EQ(fsm.num_outputs, info.num_outputs) << info.name;
    EXPECT_EQ(fsm.num_states(), info.num_states) << info.name;
    EXPECT_EQ(fsm.reset_state, 0) << info.name;
    EXPECT_TRUE(IsCompletelySpecified(fsm)) << info.name;
    EXPECT_NO_THROW(Validate(fsm));
  }
}

TEST(Benchmarks, Deterministic) {
  const Fsm a = MakeBenchmarkFsm("pma");
  const Fsm b = MakeBenchmarkFsm("pma");
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].input, b.transitions[i].input);
    EXPECT_EQ(a.transitions[i].to, b.transitions[i].to);
    EXPECT_EQ(a.transitions[i].output, b.transitions[i].output);
  }
}

TEST(Benchmarks, DistinctAcrossNames) {
  const Fsm a = MakeBenchmarkFsm("s820");
  const Fsm b = MakeBenchmarkFsm("s832");
  // Same interface, different machines.
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  bool differs = false;
  for (size_t i = 0; i < a.transitions.size() && !differs; ++i) {
    differs = a.transitions[i].to != b.transitions[i].to ||
              a.transitions[i].output != b.transitions[i].output;
  }
  EXPECT_TRUE(differs);
}

TEST(Benchmarks, GlobalSyncPattern) {
  // Input pattern 0 sends every state to state 0 (the idle/reset-like
  // transition that makes the synthesized circuits synchronizable).
  const Fsm fsm = MakeBenchmarkFsm("dk16");
  for (const Transition& t : fsm.transitions) {
    if (t.input.find('1') == std::string::npos) {
      EXPECT_EQ(t.to, 0);
    }
  }
}

TEST(Benchmarks, StronglyConnectedRing) {
  // Cube 1 (input pattern 100...) of each state steps to the next
  // state: from state 0 the ring visits every state.
  const Fsm fsm = MakeBenchmarkFsm("dk16");
  std::vector<bool> visited(static_cast<size_t>(fsm.num_states()), false);
  int state = 0;
  for (int i = 0; i < fsm.num_states(); ++i) {
    visited[static_cast<size_t>(state)] = true;
    bool stepped = false;
    for (const Transition& t : fsm.transitions) {
      if (t.from == state && t.input[0] == '1' &&
          t.input.find('1', 1) == std::string::npos) {
        state = t.to;
        stepped = true;
        break;
      }
    }
    ASSERT_TRUE(stepped);
  }
  for (bool v : visited) EXPECT_TRUE(v);
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(MakeBenchmarkFsm("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace retest::fsm
