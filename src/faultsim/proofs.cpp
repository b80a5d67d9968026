#include "faultsim/proofs.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>

#include "core/metrics.h"
#include "core/thread_pool.h"
#include "core/trace.h"
#include "sim/compiled.h"
#include "sim/levelizer.h"
#include "sim/parallel.h"
#include "sim/simd.h"

namespace retest::faultsim {

using sim::LaneMask;
using sim::V3;
using sim::Vec3;

namespace {

/// The lane-width rule: a run whose faults fit one 64-lane word runs
/// at W=1; every larger run packs 512 faults per pass.  Detections are
/// identical either way; only batching and work counters differ.
int LaneWordsFor(size_t num_faults) {
  return num_faults <= 64 ? 1 : sim::kWideLaneWords;
}

/// Fault order that maximizes cone sharing inside a lane group: sites
/// are visited in levelized topological position, so the faults of one
/// batch sit close together and the union of their fanout cones stays
/// near the size of a single cone.  A run that fits one batch keeps
/// input order: its one cone union, dirty set and work counters are
/// the same in any lane order, so sorting would only cost a Levelize.
std::vector<size_t> BatchOrder(const netlist::Circuit& circuit,
                               std::span<const fault::Fault> faults) {
  std::vector<size_t> order(faults.size());
  std::iota(order.begin(), order.end(), 0);
  const size_t lanes = 64 * static_cast<size_t>(LaneWordsFor(faults.size()));
  if (faults.size() <= lanes) return order;  // a single batch
  const sim::Levelization levels = sim::Levelize(circuit);
  std::vector<int> position(static_cast<size_t>(circuit.size()), 0);
  for (size_t p = 0; p < levels.order.size(); ++p) {
    position[static_cast<size_t>(levels.order[p])] = static_cast<int>(p);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const fault::Fault& fa = faults[a];
    const fault::Fault& fb = faults[b];
    const int pa = position[static_cast<size_t>(fa.site.node)];
    const int pb = position[static_cast<size_t>(fb.site.node)];
    if (pa != pb) return pa < pb;
    if (fa.site.pin != fb.site.pin) return fa.site.pin < fb.site.pin;
    return fa.stuck_at_1 < fb.stuck_at_1;
  });
  return order;
}

/// Per-worker reusable scratch: one frame evaluator and state vector,
/// plus local work counters merged after the parallel loop.  Each
/// starts on its own cache line: a frame writes its tail (gate counter,
/// fanin scratch) and reads its head on every gate evaluation, so
/// neighbours sharing a line would false-share whenever the vector
/// happens to land that way on the heap.
template <int W>
struct alignas(64) WorkerScratch {
  std::optional<sim::WideFrame<W>> frame;
  std::vector<Vec3<W>> state;
  long frames_evaluated = 0;
};

/// The batch loop at one lane width.  All batches evaluate the shared
/// compiled netlist and the shared good-machine trace; detections land
/// in `result.detections` at input positions, so the outcome is
/// independent of batching, threading and W.
template <int W>
void RunBatches(const netlist::Circuit& circuit,
                std::span<const fault::Fault> faults,
                const ProofsOptions& options,
                const std::shared_ptr<const sim::CompiledNetlist>& compiled,
                const sim::Trace& trace, const std::vector<size_t>& order,
                ProofsResult& result) {
  constexpr int kLanes = Vec3<W>::kLanes;

  const size_t num_batches =
      (faults.size() + static_cast<size_t>(kLanes) - 1) /
      static_cast<size_t>(kLanes);
  const int requested = core::ResolveThreadCount(options.num_threads);
  const int num_threads = static_cast<int>(
      std::min<size_t>(num_batches, static_cast<size_t>(requested)));
  result.threads_used = num_threads;
  result.lanes = kLanes;

  const size_t num_dffs = static_cast<size_t>(circuit.num_dffs());
  std::vector<WorkerScratch<W>> scratch(static_cast<size_t>(num_threads));
  core::ThreadPool pool(num_threads);
  pool.ParallelFor(num_batches, [&](int worker, size_t batch) {
    RETEST_TRACE_SPAN(batch_span, "faultsim.batch");
    RETEST_SCOPED_TIMER(batch_timer, "faultsim.batch_ms", "faultsim",
                        "wall time of one fault batch");
    WorkerScratch<W>& ws = scratch[static_cast<size_t>(worker)];
    if (!ws.frame) ws.frame.emplace(compiled);
    sim::WideFrame<W>& frame = *ws.frame;

    const size_t base = batch * static_cast<size_t>(kLanes);
    const int lanes = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(kLanes), faults.size() - base));
    std::vector<sim::Injection> injections;
    injections.reserve(static_cast<size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      injections.push_back(fault::ToInjection(
          faults[order[base + static_cast<size_t>(lane)]], lane));
    }
    frame.SetInjections(injections);
    RETEST_DIST_RECORD("faultsim.cone_activity_ratio", "ratio", "faultsim",
                       "batch activity-mask size / circuit size",
                       static_cast<double>(frame.cone_size()) /
                           static_cast<double>(std::max(1, circuit.size())));

    ws.state.assign(num_dffs, Vec3<W>{});  // all-X initial state
    const LaneMask<W> lane_mask = LaneMask<W>::FirstN(lanes);
    LaneMask<W> undetected = lane_mask;

    long batch_frames = 0;
    for (size_t t = 0; t < trace.num_frames(); ++t) {
      frame.Step(ws.state, trace.frame(t));
      ++batch_frames;
      const LaneMask<W> before = undetected;
      for (int o : frame.active_outputs()) {
        const netlist::NodeId out_node =
            circuit.outputs()[static_cast<size_t>(o)];
        // Step only computes dirty words; a clean output matches the
        // good machine in every lane, so nothing to scan.
        if (!frame.dirty(out_node)) continue;
        const V3 g = trace.outputs()[t][static_cast<size_t>(o)];
        if (g == V3::kX) continue;
        const Vec3<W>& w = frame.value(out_node);
        for (int k = 0; k < W; ++k) {
          // Faulty machine must be binary and complementary.
          const std::uint64_t differs =
              (g == V3::k1 ? w.zero[static_cast<size_t>(k)]
                           : w.one[static_cast<size_t>(k)]);
          std::uint64_t newly =
              differs & undetected.bits[static_cast<size_t>(k)];
          while (newly != 0) {
            const int lane = k * 64 + std::countr_zero(newly);
            newly &= newly - 1;
            auto& detection =
                result.detections[order[base + static_cast<size_t>(lane)]];
            detection.detected = true;
            detection.time = static_cast<int>(t);
            undetected.reset(lane);
          }
        }
      }
      if (!undetected.any()) break;
      // PROOFS fault dropping: retire detected lanes so they stop
      // generating events inside the cone.
      const LaneMask<W> dropped = before & ~undetected;
      if (dropped.any()) frame.DropLanes(dropped);
    }

    ws.frames_evaluated += batch_frames;
    RETEST_COUNTER_ADD("faultsim.batches", "batches", "faultsim",
                       "fault batches simulated", 1);
    RETEST_COUNTER_ADD("faultsim.frames_evaluated", "frames", "faultsim",
                       "circuit frames evaluated across batches",
                       batch_frames);
    RETEST_COUNTER_ADD("faultsim.faults_detected", "faults", "faultsim",
                       "faults detected by PROOFS",
                       (lane_mask & ~undetected).count());
  });

  for (const WorkerScratch<W>& ws : scratch) {
    result.frames_evaluated += ws.frames_evaluated;
    if (ws.frame) result.gate_evals += ws.frame->gate_evals();
  }
}

}  // namespace

ProofsResult SimulateProofs(const netlist::Circuit& circuit,
                            std::span<const fault::Fault> faults,
                            const sim::InputSequence& sequence,
                            const ProofsOptions& options) {
  RETEST_TRACE_SPAN(run_span, "faultsim.simulate");
  ProofsResult result;
  result.detections.assign(faults.size(), {});
  result.lanes = 64 * LaneWordsFor(faults.size());
  if (faults.empty() || sequence.empty()) return result;
  RETEST_COUNTER_ADD("faultsim.runs", "runs", "faultsim",
                     "SimulateProofs invocations", 1);
  RETEST_COUNTER_ADD("faultsim.faults_simulated", "faults", "faultsim",
                     "faults handed to SimulateProofs",
                     static_cast<long>(faults.size()));

  // The good machine's per-node trace once, shared read-only by every
  // batch: non-cone values are seeded from it.
  const sim::Trace trace = [&] {
    RETEST_TRACE_SPAN(good_span, "faultsim.good_trace");
    return sim::Trace(circuit, sequence);
  }();

  const std::vector<size_t> order = BatchOrder(circuit, faults);
  const std::shared_ptr<const sim::CompiledNetlist> compiled =
      sim::Compile(circuit);
  if (LaneWordsFor(faults.size()) == 1) {
    RunBatches<1>(circuit, faults, options, compiled, trace, order, result);
  } else {
    RunBatches<sim::kWideLaneWords>(circuit, faults, options, compiled,
                                    trace, order, result);
  }
  RETEST_COUNTER_ADD("faultsim.gate_evals", "node-evals", "faultsim",
                     "lane-wide node evaluations performed",
                     result.gate_evals);
  return result;
}

}  // namespace retest::faultsim
