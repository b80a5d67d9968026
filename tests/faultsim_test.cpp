#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "faultsim/proofs.h"
#include "faultsim/serial.h"
#include "netlist/builder.h"
#include "sim/compiled.h"
#include "sim/simulator.h"
#include "tests/random_circuits.h"

namespace retest::faultsim {
namespace {

using netlist::Builder;
using netlist::Circuit;
using sim::FromString;
using sim::InputSequence;
using sim::V3;

Circuit AndChain() {
  Builder builder("andchain");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"}).Dff("q", "g").Output("z", "q");
  return builder.Build();
}

struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

InputSequence RandomSequence(Rng& rng, int width, int length) {
  InputSequence sequence(static_cast<size_t>(length));
  for (auto& vector : sequence) {
    vector.resize(static_cast<size_t>(width));
    for (auto& v : vector) v = rng.Next() & 1 ? V3::k1 : V3::k0;
  }
  return sequence;
}

TEST(Serial, DetectsSimpleFault) {
  const Circuit circuit = AndChain();
  // g s-a-0: apply 11 then observe z one cycle later.
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  const InputSequence sequence{FromString("11"), FromString("11")};
  const auto detections =
      SimulateSerial(circuit, std::span(&fault, 1), sequence);
  ASSERT_TRUE(detections[0].detected);
  EXPECT_EQ(detections[0].time, 1);
}

TEST(Serial, MissesWithoutPropagation) {
  const Circuit circuit = AndChain();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  // Excites nothing: inputs never produce good value 1.
  const InputSequence sequence{FromString("10"), FromString("01")};
  const auto detections =
      SimulateSerial(circuit, std::span(&fault, 1), sequence);
  EXPECT_FALSE(detections[0].detected);
}

TEST(Serial, UnknownGoodOutputNeverDetects) {
  // Output observes the unknown state in the first cycle; a fault
  // there must not be "detected" against X.
  const Circuit circuit = AndChain();
  const fault::Fault fault{{circuit.Find("q"), -1}, true};
  const InputSequence sequence{FromString("00")};
  const auto detections =
      SimulateSerial(circuit, std::span(&fault, 1), sequence);
  EXPECT_FALSE(detections[0].detected);
}

TEST(Serial, FaultySimulatorExposesState) {
  const Circuit circuit = AndChain();
  FaultySimulator faulty(circuit, {{circuit.Find("g"), -1}, true});
  faulty.Reset();
  faulty.Step(FromString("00"));
  // Stuck-at-1 on g forces the DFF to 1 regardless of inputs.
  EXPECT_EQ(faulty.state()[0], V3::k1);
}

TEST(Proofs, MatchesSerialOnPaperStructure) {
  const Circuit circuit = AndChain();
  const auto faults = fault::EnumerateFaults(circuit);
  Rng rng{42};
  const InputSequence sequence = RandomSequence(rng, 2, 16);
  const auto serial = SimulateSerial(circuit, faults, sequence);
  const auto proofs = SimulateProofs(circuit, faults, sequence);
  ASSERT_EQ(serial.size(), proofs.detections.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].detected, proofs.detections[i].detected)
        << ToString(circuit, faults[i]);
    if (serial[i].detected) {
      EXPECT_EQ(serial[i].time, proofs.detections[i].time);
    }
  }
}

TEST(Proofs, MatchesSerialOnRandomCircuits) {
  // Randomized cross-check over structurally varied circuits.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng{seed};
    Builder builder("rand" + std::to_string(seed));
    builder.Input("a").Input("b").Input("c");
    builder.Dff("q0").Dff("q1");
    builder.And("g0", {"a", "q0"});
    builder.Or("g1", {"b", "q1"});
    builder.Xor("g2", {"g0", "g1"});
    builder.Nand("g3", {"g2", "c"});
    builder.Nor("g4", {"g2", "g0"});
    builder.SetDffInput("q0", "g3").SetDffInput("q1", "g4");
    builder.Output("z0", "g2").Output("z1", "g4");
    const Circuit circuit = builder.Build();

    const auto faults = fault::EnumerateFaults(circuit);
    const InputSequence sequence = RandomSequence(rng, 3, 24);
    const auto serial = SimulateSerial(circuit, faults, sequence);
    const auto proofs = SimulateProofs(circuit, faults, sequence);
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].detected, proofs.detections[i].detected)
          << "seed " << seed << ": " << ToString(circuit, faults[i]);
    }
  }
}

TEST(Proofs, HandlesMoreThan64Faults) {
  // Chain wide enough to exceed one 64-fault group.
  Builder builder("wide");
  builder.Input("a");
  std::string prev = "a";
  for (int i = 0; i < 40; ++i) {
    const std::string name = retest::testing::IndexedName("g", i);
    builder.Buf(name, prev);
    prev = name;
  }
  builder.Output("z", prev);
  const Circuit circuit = builder.Build();
  const auto faults = fault::EnumerateFaults(circuit);
  ASSERT_GT(faults.size(), 64u);

  const InputSequence sequence{FromString("1"), FromString("0")};
  const auto result = SimulateProofs(circuit, faults, sequence);
  // Every buffer-line fault is excited by one of the two vectors and
  // propagates combinationally.
  EXPECT_EQ(result.num_detected(), static_cast<int>(faults.size()));
}

TEST(Proofs, EmptyInputsAreSafe) {
  const Circuit circuit = AndChain();
  const auto result = SimulateProofs(circuit, {}, {});
  EXPECT_EQ(result.num_detected(), 0);
  EXPECT_TRUE(result.detections.empty());
}

// Fault dropping ends a batch once all its faults are detected, and
// retires each detected lane before that; the serial reference never
// drops, so agreeing with it shows dropping loses no detection.
TEST(Proofs, DroppingDoesNotChangeDetections) {
  const Circuit circuit = AndChain();
  const auto faults = fault::EnumerateFaults(circuit);
  Rng rng{7};
  const InputSequence sequence = RandomSequence(rng, 2, 12);
  const auto serial = SimulateSerial(circuit, faults, sequence);
  const auto proofs = SimulateProofs(circuit, faults, sequence);
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(proofs.detections[i], serial[i]) << ToString(circuit, faults[i]);
  }
  // The one batch stops at the latest detection time.
  int last = -1;
  for (const Detection& d : serial) last = std::max(last, d.time);
  ASSERT_EQ(proofs.num_detected(), static_cast<int>(faults.size()));
  EXPECT_EQ(proofs.frames_evaluated, last + 1);
  EXPECT_LT(proofs.frames_evaluated, static_cast<long>(sequence.size()));
}

// ~25% X inputs so unknown-value paths are exercised alongside binary
// ones.
InputSequence Random3Sequence(Rng& rng, int width, int length) {
  InputSequence sequence(static_cast<size_t>(length));
  for (auto& vector : sequence) {
    vector.resize(static_cast<size_t>(width));
    for (auto& v : vector) {
      switch (rng.Next() & 3) {
        case 0: v = V3::k0; break;
        case 1: v = V3::k1; break;
        case 2: v = V3::kX; break;
        default: v = rng.Next() & 1 ? V3::k1 : V3::k0; break;
      }
    }
  }
  return sequence;
}

// The headline equivalence guarantee of the cone-restricted threaded
// engine: identical Detection vectors (flag AND time) to the scalar
// reference on randomized circuits, across thread counts.
TEST(Proofs, ConeRestrictedThreadedMatchesSerialOnRandomCircuits) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  bool saw_pi_stem = false;
  bool saw_dff_pin = false;
  bool saw_branch = false;

  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    retest::testing::RandomCircuitOptions copts;
    copts.num_inputs = 2 + static_cast<int>(seed % 3);
    copts.num_dffs = 1 + static_cast<int>(seed % 4);
    copts.num_gates = 6 + static_cast<int>(seed % 14);
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed, copts);
    const auto faults = fault::EnumerateFaults(circuit);
    for (const auto& f : faults) {
      const netlist::NodeKind kind = circuit.node(f.site.node).kind;
      if (f.site.pin < 0 && kind == netlist::NodeKind::kInput) {
        saw_pi_stem = true;
      }
      if (kind == netlist::NodeKind::kDff && f.site.pin == 0) {
        saw_dff_pin = true;
      }
      if (f.site.pin >= 0) saw_branch = true;
    }

    Rng rng{seed * 977 + 13};
    const InputSequence sequence = Random3Sequence(
        rng, circuit.num_inputs(), 12 + static_cast<int>(seed % 20));
    const auto serial = SimulateSerial(circuit, faults, sequence);

    for (int threads : {1, 2, hw}) {
      ProofsOptions options;
      options.num_threads = threads;
      const auto proofs = SimulateProofs(circuit, faults, sequence, options);
      ASSERT_EQ(serial.size(), proofs.detections.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], proofs.detections[i])
            << "threads " << threads << " seed " << seed << ": "
            << ToString(circuit, faults[i]) << " (serial "
            << serial[i].detected << "@" << serial[i].time << ", proofs "
            << proofs.detections[i].detected << "@"
            << proofs.detections[i].time << ")";
      }
    }
  }
  // The universe exercised the site classes the engine special-cases.
  EXPECT_TRUE(saw_pi_stem);
  EXPECT_TRUE(saw_dff_pin);
  EXPECT_TRUE(saw_branch);
}

/// Simulates `faults` as consecutive runs of at most 64 faults, each
/// of which takes the 64-lane path, and stitches the runs together:
/// detections concatenated in input order, work counters summed.
ProofsResult SimulateInChunks(const Circuit& circuit,
                              std::span<const fault::Fault> faults,
                              const InputSequence& sequence,
                              const ProofsOptions& options) {
  ProofsResult all;
  for (size_t begin = 0; begin < faults.size(); begin += 64) {
    const size_t size = std::min<size_t>(64, faults.size() - begin);
    const ProofsResult chunk = SimulateProofs(
        circuit, faults.subspan(begin, size), sequence, options);
    EXPECT_EQ(chunk.lanes, 64);
    all.detections.insert(all.detections.end(), chunk.detections.begin(),
                          chunk.detections.end());
    all.frames_evaluated += chunk.frames_evaluated;
    all.gate_evals += chunk.gate_evals;
  }
  return all;
}

// The lane-width determinism gate: one run over more than 64 faults
// (the 512-lane path) detects exactly what its 64-fault chunks (the
// 64-lane path) detect — flag AND detection time — and both equal the
// scalar serial reference.  Covered at one and many threads; dropping
// exercises DropLanes on partially-live words.  Fault counts here are
// nowhere near
// multiples of 64 or 512, so both paths end in a partial final batch
// with masked dead lanes.
TEST(Proofs, LaneWidthDoesNotChangeDetections) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    retest::testing::RandomCircuitOptions copts;
    copts.num_inputs = 3 + static_cast<int>(seed % 3);
    copts.num_dffs = 2 + static_cast<int>(seed % 3);
    copts.num_gates = 16 + static_cast<int>(seed % 24);
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed, copts);
    const auto faults = fault::EnumerateFaults(circuit);
    ASSERT_GT(faults.size(), 64u) << "seed " << seed;
    Rng rng{seed * 1181 + 7};
    const InputSequence sequence = Random3Sequence(
        rng, circuit.num_inputs(), 10 + static_cast<int>(seed % 16));
    const auto serial = SimulateSerial(circuit, faults, sequence);

    for (int threads : {1, hw}) {
      ProofsOptions options;
      options.num_threads = threads;
      const auto whole = SimulateProofs(circuit, faults, sequence, options);
      const auto chunked =
          SimulateInChunks(circuit, faults, sequence, options);
      EXPECT_EQ(whole.lanes, 512);
      ASSERT_EQ(serial.size(), whole.detections.size());
      ASSERT_EQ(serial.size(), chunked.detections.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], whole.detections[i])
            << "seed " << seed << " threads " << threads << ": "
            << ToString(circuit, faults[i]);
        EXPECT_EQ(whole.detections[i], chunked.detections[i])
            << "seed " << seed << " threads " << threads << ": "
            << ToString(circuit, faults[i]);
      }
    }
  }
}

// A run that fits one batch keeps input order (no site sort): its one
// cone union, dirty set and frame count are the same in any lane
// order.  Permuting its faults permutes the detections and leaves the
// work counters unchanged, at both lane widths.
TEST(Proofs, SingleBatchRunIsLaneOrderInvariant) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Circuit circuit = retest::testing::MakeRandomCircuit(
        seed, {.num_inputs = 4, .num_dffs = 3, .num_gates = 30});
    const auto universe = fault::EnumerateFaults(circuit);
    ASSERT_GT(universe.size(), 64u) << "seed " << seed;
    ASSERT_LE(universe.size(), 512u) << "seed " << seed;
    Rng rng{seed * 631 + 3};
    const InputSequence sequence = Random3Sequence(rng, 4, 16);
    for (const size_t count : {size_t{64}, universe.size()}) {
      const std::span<const fault::Fault> faults(universe.data(), count);
      std::vector<size_t> perm(count);
      std::iota(perm.begin(), perm.end(), 0);
      for (size_t i = count - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.Next() % (i + 1)]);
      }
      std::vector<fault::Fault> permuted;
      for (const size_t p : perm) permuted.push_back(faults[p]);
      const auto base = SimulateProofs(circuit, faults, sequence);
      const auto shuffled = SimulateProofs(circuit, permuted, sequence);
      EXPECT_EQ(base.lanes, count <= 64 ? 64 : 512);
      EXPECT_EQ(shuffled.frames_evaluated, base.frames_evaluated)
          << "seed " << seed << " faults " << count;
      EXPECT_EQ(shuffled.gate_evals, base.gate_evals)
          << "seed " << seed << " faults " << count;
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(shuffled.detections[i], base.detections[perm[i]])
            << "seed " << seed << " faults " << count << ": "
            << ToString(circuit, permuted[i]);
      }
    }
  }
}

// An all-X sequence detects nothing, so no batch stops early and the
// frame count is batches x frames: one 512-lane batch for the whole
// list, one 64-lane batch per chunk.
TEST(Proofs, WiderLanesEvaluateFewerFrames) {
  const Circuit circuit = retest::testing::MakeRandomCircuit(
      11, {.num_inputs = 4, .num_dffs = 3, .num_gates = 30});
  const auto faults = fault::EnumerateFaults(circuit);
  ASSERT_GT(faults.size(), 64u) << "need several 64-lane batches";
  ASSERT_LE(faults.size(), 512u) << "need a single 512-lane batch";
  const InputSequence sequence(20, sim::InputVector(4, V3::kX));
  const long frames = static_cast<long>(sequence.size());
  const long chunks = static_cast<long>((faults.size() + 63) / 64);
  const ProofsResult whole = SimulateProofs(circuit, faults, sequence);
  const ProofsResult chunked = SimulateInChunks(circuit, faults, sequence, {});
  EXPECT_EQ(whole.num_detected(), 0);
  EXPECT_EQ(chunked.num_detected(), 0);
  EXPECT_EQ(whole.frames_evaluated, frames);
  EXPECT_EQ(chunked.frames_evaluated, chunks * frames);
}

// Evaluating every scheduled node on every frame would cost frames x
// schedule size; the cone kernel evaluates only the active frontier of
// each batch's cone union.
TEST(Proofs, ConeRestrictionReducesGateEvals) {
  const Circuit circuit = retest::testing::MakeRandomCircuit(
      3, {.num_inputs = 4, .num_dffs = 4, .num_gates = 40});
  const auto faults = fault::EnumerateFaults(circuit);
  Rng rng{99};
  const InputSequence sequence = RandomSequence(rng, 4, 32);
  // 64-fault runs: a 512-lane batch would hold this whole fault list,
  // and its cone union would span the circuit, leaving nothing for the
  // restriction to skip.
  const auto chunked = SimulateInChunks(circuit, faults, sequence, {});
  const auto serial = SimulateSerial(circuit, faults, sequence);
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(chunked.detections[i], serial[i]);
  }
  const long schedule =
      static_cast<long>(sim::Compile(circuit)->schedule().size());
  EXPECT_GT(chunked.frames_evaluated, 0);
  EXPECT_LT(chunked.gate_evals, chunked.frames_evaluated * schedule);
}

TEST(Proofs, ThreadCountDoesNotChangeWorkMeasures) {
  const Circuit circuit = retest::testing::MakeRandomCircuit(
      5, {.num_inputs = 3, .num_dffs = 3, .num_gates = 24});
  const auto faults = fault::EnumerateFaults(circuit);
  Rng rng{123};
  const InputSequence sequence = RandomSequence(rng, 3, 24);
  ProofsOptions one;
  one.num_threads = 1;
  ProofsOptions many;
  many.num_threads = 4;
  const auto a = SimulateProofs(circuit, faults, sequence, one);
  const auto b = SimulateProofs(circuit, faults, sequence, many);
  EXPECT_EQ(a.frames_evaluated, b.frames_evaluated);
  EXPECT_EQ(a.gate_evals, b.gate_evals);
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(a.detections[i], b.detections[i]);
  }
}

// The cone engine's search, pinned: a seeded circuit with several
// 512-lane batches, run in cone mode with dropping at 1 and 4 threads.
// The detected count, a CRC over every (fault, detected, time) and
// both work counters are fixed values, so a change to how the cone
// kernel reads the good machine cannot silently change what it
// evaluates or finds.
TEST(Proofs, ConeWorkIsPinned) {
  const Circuit circuit = retest::testing::MakeRandomCircuit(
      21, {.num_inputs = 6, .num_dffs = 3, .num_gates = 300});
  const auto faults = fault::EnumerateFaults(circuit);
  ASSERT_GT(faults.size(), 512u);
  Rng rng{2024};
  const InputSequence sequence =
      Random3Sequence(rng, circuit.num_inputs(), 40);
  for (const int threads : {1, 4}) {
    ProofsOptions options;
    options.num_threads = threads;
    const auto result = SimulateProofs(circuit, faults, sequence, options);
    std::uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < result.detections.size(); ++i) {
      const Detection& d = result.detections[i];
      const std::uint32_t word =
          static_cast<std::uint32_t>(i) * 0x10000u +
          (d.detected ? 0x8000u + static_cast<std::uint32_t>(d.time) : 0u);
      for (int bit = 0; bit < 32; ++bit) {
        const std::uint32_t mix = (crc ^ (word >> bit)) & 1u;
        crc = (crc >> 1) ^ (mix ? 0xedb88320u : 0u);
      }
    }
    EXPECT_EQ(result.lanes, 512);
    EXPECT_EQ(result.num_detected(), 1250) << "threads " << threads;
    EXPECT_EQ(~crc, 0xd03f4ca6u) << "threads " << threads;
    EXPECT_EQ(result.frames_evaluated, 160) << "threads " << threads;
    EXPECT_EQ(result.gate_evals, 20831) << "threads " << threads;
  }
}

TEST(Proofs, BranchFaultStaysLocal) {
  Builder builder("branch");
  builder.Input("a");
  builder.Buf("g1", "a").Buf("g2", "a");
  builder.Output("z1", "g1").Output("z2", "g2");
  const Circuit circuit = builder.Build();
  const fault::Fault branch{{circuit.Find("g1"), 0}, true};
  const InputSequence sequence{FromString("0")};
  const auto result = SimulateProofs(circuit, std::span(&branch, 1), sequence);
  EXPECT_TRUE(result.detections[0].detected);  // z1 differs, z2 agrees
}

}  // namespace
}  // namespace retest::faultsim
