// atpg_hitec and faultsim_long: the two in-process workloads.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <span>
#include <stdexcept>

#include "core/crc32.h"
#include "core/preserve.h"
#include "core/testset.h"
#include "experiments.h"
#include "fault/collapse.h"
#include "fault/correspondence.h"
#include "faultsim/proofs.h"
#include "faultsim/serial.h"
#include "sim/compiled.h"
#include "sim/simd.h"
#include "synthetic.h"

namespace perfbench {

using namespace retest;

namespace {

std::string Format(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

faultsim::ProofsOptions EngineProofsOptions() {
  faultsim::ProofsOptions options;
  options.num_threads = kEngineThreads;
  return options;
}

std::vector<bool> DetectedFlags(const faultsim::ProofsResult& result) {
  std::vector<bool> flags;
  flags.reserve(result.detections.size());
  for (const auto& d : result.detections) flags.push_back(d.detected);
  return flags;
}

/// Golden and repeat fields of a PROOFS op.  gate_evals and
/// frames_evaluated depend on the host's lane width, so they repeat
/// within a run but are not golden.
Outcome ProofsOutcome(const faultsim::ProofsResult& result) {
  std::vector<int> times;
  times.reserve(result.detections.size());
  for (const auto& d : result.detections) times.push_back(d.time);
  Outcome outcome;
  outcome.faults = static_cast<long>(result.detections.size());
  outcome.detected = result.num_detected();
  outcome.golden =
      Format("faults=%ld,det=%ld,crc=%08x", outcome.faults, outcome.detected,
             DetectionsCrc(DetectedFlags(result), times));
  outcome.repeat = outcome.golden +
                   Format(",gate_evals=%ld,frames=%ld", result.gate_evals,
                          result.frames_evaluated);
  return outcome;
}

void CompareGolden(const std::string& op, const std::string& actual,
                   const std::map<std::string, std::string>& golden,
                   std::vector<Finding>& findings) {
  const auto it = golden.find(op);
  if (it == golden.end()) {
    findings.push_back({op, "no golden value"});
  } else if (it->second != actual) {
    findings.push_back({op, "result " + actual + " != golden " + it->second});
  }
}

// ---- atpg_hitec ------------------------------------------------------

/// dk16.ji.sd, pma.jo.sd, s820.jc.sd, s832.jc.sr: four retimed Table II
/// circuits of similar size, so no single op dominates a round.
constexpr int kHitecPairs[] = {0, 1, 7, 12};

bool IsHitecPair(int index) {
  return std::find(std::begin(kHitecPairs), std::end(kHitecPairs), index) !=
         std::end(kHitecPairs);
}

/// bench::Table2AtpgOptions (HITEC-style justification, no random
/// phase) with per-fault limits small enough for a ~0.3 s op.
atpg::AtpgOptions HitecOptions() {
  atpg::AtpgOptions options = bench::Table2AtpgOptions(kNeverBindsMs);
  options.backtracks_per_fault = 10;
  options.evaluations_per_fault = 2000;
  options.justify_backtracks = 20;
  options.justify_max_depth = 4;
  options.max_frames = 2;
  options.num_threads = kEngineThreads;
  return options;
}

class AtpgHitec : public Workload {
 public:
  /// Prepares and certifies the Table II pairs the way the Table II
  /// experiment does, all but the two scf pairs (whose min-period
  /// retiming alone takes seconds); the ops run on kHitecPairs.
  void Setup() override {
    pairs_.clear();
    const auto& variants = bench::Table2Variants();
    for (int index = 0; index < static_cast<int>(variants.size()); ++index) {
      if (std::string(variants[static_cast<std::size_t>(index)].fsm) ==
          "scf") {
        continue;
      }
      Pair pair = PrepareTable2Pair(index);
      if (const std::string why = CertifyPair(pair); !why.empty()) {
        throw std::runtime_error(pair.name + ": " + why);
      }
      if (IsHitecPair(index)) pairs_.push_back(std::move(pair));
    }
  }

  std::vector<Op> Ops() override {
    std::vector<Op> ops;
    for (const Pair& pair : pairs_) {
      const std::string name = pair.retimed().name();
      ops.push_back({name, [this, &pair, name] {
                       atpg::AtpgResult result = Trace().Span("atpg.run", [&] {
                         return atpg::RunAtpg(pair.retimed(), HitecOptions());
                       });
                       Outcome outcome = Describe(result);
                       results_.try_emplace(name, std::move(result));
                       return outcome;
                     }});
    }
    return ops;
  }

  double NominalRoundSeconds() const override { return 1.25; }

  std::vector<Finding> Check(
      const std::map<std::string, Outcome>& outcomes,
      const std::map<std::string, std::string>& golden) override {
    std::vector<Finding> findings;
    for (const Pair& pair : pairs_) {
      const std::string name = pair.retimed().name();
      const auto it = results_.find(name);
      if (it == results_.end()) continue;
      CompareGolden(name, outcomes.at(name).golden, golden, findings);
      // Every detection the ATPG claims must hold when its tests are
      // fault-simulated back to back.
      const atpg::AtpgResult& result = it->second;
      const auto sim = faultsim::SimulateProofs(
          pair.retimed(), result.faults, result.ConcatenatedTests(),
          EngineProofsOptions());
      long unconfirmed = 0;
      for (std::size_t i = 0; i < result.faults.size(); ++i) {
        if (result.status[i] == atpg::FaultStatus::kDetected &&
            !sim.detections[i].detected) {
          ++unconfirmed;
        }
      }
      if (unconfirmed > 0) {
        findings.push_back(
            {name, std::to_string(unconfirmed) +
                       " claimed detections not confirmed by SimulateProofs"});
      }
    }
    return findings;
  }

 private:
  static Outcome Describe(const atpg::AtpgResult& result) {
    core::TestSet set;
    set.tests = result.tests;
    Outcome outcome;
    outcome.faults = static_cast<long>(result.faults.size());
    outcome.detected = result.Count(atpg::FaultStatus::kDetected);
    outcome.redundant = result.Count(atpg::FaultStatus::kRedundant);
    outcome.golden = Format(
        "faults=%ld,det=%ld,red=%ld,abort=%d,untried=%d,tests=%zu,crc=%08x",
        outcome.faults, outcome.detected, outcome.redundant,
        result.Count(atpg::FaultStatus::kAborted),
        result.Count(atpg::FaultStatus::kUntried), result.tests.size(),
        core::Crc32(set.ToText()));
    outcome.repeat =
        outcome.golden + Format(",evaluations=%ld", result.evaluations);
    if (result.preempted) outcome.error = "preempted";
    return outcome;
  }

  std::vector<Pair> pairs_;
  std::map<std::string, atpg::AtpgResult> results_;
};

// ---- faultsim_long ---------------------------------------------------

/// Table III rows: dk16.ji.sd, pma.jo.sd, s820.jc.sd, s832.jc.sr and
/// both scf rows.  The two scf ops are a sixth of a round, so the 90th
/// percentile falls inside their group rather than on its edge.
constexpr int kTable3Rows[] = {0, 1, 7, 12, 14, 15};
/// The synthetic circuit's faults are simulated in this many ops, so
/// the large case is a share of every round rather than one long op.
constexpr int kSyntheticChunks = 6;
/// Long enough that the compiled image plus the good-machine traces
/// PROOFS keeps outgrow an 8 MiB L2 even at the narrowest lane width
/// (64 lanes, 16 bytes per node and frame in the lane-wide trace).
constexpr int kSyntheticVectors = 24;
/// Faults per chunk re-simulated by the serial reference simulator.
constexpr int kSerialSamples = 12;

/// bench::TestSetAtpgOptions (random phase, then forward-ILA PODEM)
/// with limits that keep test-set generation to seconds.
atpg::AtpgOptions TestSetOptions() {
  atpg::AtpgOptions options = bench::TestSetAtpgOptions(kNeverBindsMs);
  options.random_rounds = 24;
  options.random_length_factor = 2;
  options.max_frames = 4;
  options.backtracks_per_fault = 20;
  options.evaluations_per_fault = 2000;
  options.num_threads = kEngineThreads;
  return options;
}

class FaultsimLong : public Workload {
 public:
  explicit FaultsimLong(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    rows_.clear();
    for (const int index : kTable3Rows) {
      Row row{PrepareTable2Pair(index), {}, {}};
      if (const std::string why = CertifyPair(row.pair); !why.empty()) {
        throw std::runtime_error(row.pair.name + ": " + why);
      }
      const atpg::AtpgResult tests = Trace().Span("atpg.run", [&] {
        return atpg::RunAtpg(row.pair.original, TestSetOptions());
      });
      if (tests.preempted) {
        throw std::runtime_error(row.pair.name + ": test-set ATPG preempted");
      }
      core::TestSet set;
      set.tests = tests.tests;
      row.original_stream = set.Concatenated();
      row.derived_stream =
          core::DeriveRetimedTestSet(set, row.pair.prefix,
                                     row.pair.original.num_inputs())
              .Concatenated();
      rows_.push_back(std::move(row));
    }
    synthetic_ = MakeSyntheticCircuit(seed_);
    const fault::CollapsedFaults collapsed = Trace().Span(
        "fault.collapse", [&] { return fault::Collapse(synthetic_); });
    // Fault i goes to chunk i mod kSyntheticChunks, so every chunk
    // samples the whole circuit and the chunk ops cost about the same.
    synthetic_faults_ = collapsed.representatives.size();
    chunks_.assign(kSyntheticChunks, {});
    for (std::size_t i = 0; i < collapsed.representatives.size(); ++i) {
      chunks_[i % kSyntheticChunks].push_back(collapsed.representatives[i]);
    }
    sequence_ = MakeRandomSequence(seed_, synthetic_.num_inputs(),
                                   kSyntheticVectors);
  }

  std::vector<Op> Ops() override {
    std::vector<Op> ops;
    for (const Row& row : rows_) {
      const std::string name = "table3/" + row.pair.retimed().name();
      ops.push_back({name, [this, &row, name] {
                       const auto faults = Trace().Span("fault.collapse", [&] {
                         return fault::Collapse(row.pair.retimed());
                       });
                       return Simulate(name, row.pair.retimed(),
                                       faults.representatives,
                                       row.derived_stream);
                     }});
    }
    for (std::size_t chunk = 0; chunk < chunks_.size(); ++chunk) {
      const std::string name = "synthetic/" + std::to_string(chunk);
      ops.push_back({name, [this, chunk, name] {
                       return Simulate(name, synthetic_, chunks_[chunk],
                                       sequence_);
                     }});
    }
    return ops;
  }

  double NominalRoundSeconds() const override { return 2.9; }

  /// The synthetic circuit's size and the bytes PROOFS walks for it:
  /// the compiled netlist's arrays, the scalar good-machine trace and
  /// the lane-wide trace the cone evaluator reads (16 bytes per node
  /// and frame for every 64 lanes), at the resolved lane width and at
  /// 64 lanes.
  std::string Context() const override {
    const sim::CompiledNetlist compiled(synthetic_);
    const auto nodes = static_cast<std::size_t>(compiled.num_nodes());
    std::size_t words = compiled.schedule().size() +
                        static_cast<std::size_t>(compiled.depth()) + 2 +
                        compiled.inputs().size() + 2 * compiled.outputs().size() +
                        2 * compiled.dffs().size();
    for (std::uint32_t id = 0; id < nodes; ++id) {
      words += compiled.fanins(id).size() + compiled.fanouts(id).size();
    }
    const std::size_t compiled_bytes =
        4 * words + nodes * (sizeof(netlist::NodeKind) + 4 * 4);
    const std::size_t trace_bytes = nodes * sequence_.size();
    const std::size_t wide_64 = 16 * trace_bytes;
    const auto lane_words =
        static_cast<std::size_t>(sim::ResolveLaneWords(0));
    return Format(
        "{\"nodes\": %zu, \"faults\": %zu, \"vectors\": %zu, "
        "\"compiled_bytes\": %zu, \"trace_bytes\": %zu, "
        "\"wide_trace_bytes\": %zu, \"wide_trace_bytes_64_lanes\": %zu, "
        "\"footprint_bytes\": %zu, \"footprint_bytes_64_lanes\": %zu}",
        nodes, synthetic_faults_, sequence_.size(), compiled_bytes,
        trace_bytes, wide_64 * lane_words, wide_64,
        compiled_bytes + trace_bytes + wide_64 * lane_words,
        compiled_bytes + trace_bytes + wide_64);
  }

  std::vector<Finding> Check(
      const std::map<std::string, Outcome>& outcomes,
      const std::map<std::string, std::string>& golden) override {
    std::vector<Finding> findings;
    for (const Row& row : rows_) {
      const std::string name = "table3/" + row.pair.retimed().name();
      const auto it = detections_.find(name);
      if (it == detections_.end()) continue;
      CompareGolden(name, outcomes.at(name).golden, golden, findings);
      const long violations =
          AuditTheorem4(row.pair, row.original_stream,
                        DetectedFlags(it->second));
      if (violations > 0) {
        findings.push_back({name, std::to_string(violations) +
                                      " Theorem-4 audit violations"});
      }
    }
    // The synthetic circuit depends on the seed, so it has no golden
    // values: a sample of each chunk is re-simulated fault by fault.
    for (std::size_t chunk = 0; chunk < chunks_.size(); ++chunk) {
      const std::string name = "synthetic/" + std::to_string(chunk);
      const auto it = detections_.find(name);
      if (it == detections_.end()) continue;
      const std::vector<fault::Fault>& faults = chunks_[chunk];
      std::vector<fault::Fault> sample;
      std::vector<std::size_t> where;
      for (int k = 0; k < kSerialSamples; ++k) {
        const std::size_t i =
            (seed_ * 7919 + static_cast<std::size_t>(k) * faults.size()) /
            kSerialSamples % faults.size();
        sample.push_back(faults[i]);
        where.push_back(i);
      }
      const auto serial =
          faultsim::SimulateSerial(synthetic_, sample, sequence_);
      for (std::size_t k = 0; k < sample.size(); ++k) {
        if (!(serial[k] == it->second.detections[where[k]])) {
          findings.push_back(
              {name, "PROOFS and serial simulation disagree on fault " +
                         fault::ToString(synthetic_, sample[k])});
        }
      }
    }
    return findings;
  }

 private:
  struct Row {
    Pair pair;
    sim::InputSequence original_stream;
    sim::InputSequence derived_stream;
  };

  Outcome Simulate(const std::string& name, const netlist::Circuit& circuit,
                   std::span<const fault::Fault> faults,
                   const sim::InputSequence& stream) {
    faultsim::ProofsResult result = Trace().Span("faultsim.simulate", [&] {
      return faultsim::SimulateProofs(circuit, faults, stream,
                                      EngineProofsOptions());
    });
    Outcome outcome = ProofsOutcome(result);
    detections_.try_emplace(name, std::move(result));
    return outcome;
  }

  const std::uint64_t seed_;
  std::vector<Row> rows_;
  netlist::Circuit synthetic_{"synthetic"};
  std::size_t synthetic_faults_ = 0;
  std::vector<std::vector<fault::Fault>> chunks_;
  sim::InputSequence sequence_;
  std::map<std::string, faultsim::ProofsResult> detections_;
};

}  // namespace

std::unique_ptr<Workload> MakeAtpgHitec() {
  return std::make_unique<AtpgHitec>();
}

std::unique_ptr<Workload> MakeFaultsimLong(std::uint64_t seed) {
  return std::make_unique<FaultsimLong>(seed);
}

namespace {
long audited_faults = 0;
}  // namespace

long AuditedFaults() { return audited_faults; }

long AuditTheorem4(const Pair& pair, const sim::InputSequence& original_tests,
                   const std::vector<bool>& retimed_detected) {
  const fault::Correspondence correspondence =
      fault::BuildCorrespondence(pair.build, pair.retiming, pair.applied);
  // Equivalent faults share their class representative's detection.
  const fault::CollapsedFaults original = fault::Collapse(pair.original);
  const auto original_sim = faultsim::SimulateProofs(
      pair.original, original.representatives, original_tests,
      EngineProofsOptions());
  std::map<fault::Fault, bool> detected_in_original;
  {
    std::map<fault::Fault, bool> by_representative;
    for (std::size_t i = 0; i < original.representatives.size(); ++i) {
      by_representative[original.representatives[i]] =
          original_sim.detections[i].detected;
    }
    for (std::size_t i = 0; i < original.all.size(); ++i) {
      detected_in_original[original.all[i]] = by_representative.at(
          original.all[static_cast<std::size_t>(original.class_of[i])]);
    }
  }
  const fault::CollapsedFaults retimed = fault::Collapse(pair.retimed());
  std::map<fault::Fault, bool> detected_in_retimed;
  for (std::size_t i = 0; i < retimed.representatives.size(); ++i) {
    detected_in_retimed[retimed.representatives[i]] = retimed_detected[i];
  }

  long violations = 0;
  for (std::size_t i = 0; i < retimed.all.size(); ++i) {
    const fault::Fault& f = retimed.all[i];
    const auto sites = correspondence.to_original.find(f.site);
    if (sites == correspondence.to_original.end()) {
      ++violations;  // every K' fault must correspond to some K fault
      continue;
    }
    bool all_detected = true;
    for (const fault::Site& site : sites->second) {
      const auto it = detected_in_original.find({site, f.stuck_at_1});
      if (it == detected_in_original.end() || !it->second) {
        all_detected = false;
        break;
      }
    }
    const fault::Fault& representative =
        retimed.all[static_cast<std::size_t>(retimed.class_of[i])];
    if (!all_detected) continue;
    ++audited_faults;
    if (!detected_in_retimed.at(representative)) ++violations;
  }
  return violations;
}

}  // namespace perfbench
