#include "atpg/podem.h"

#include <optional>
#include <vector>

#include "core/metrics.h"

namespace retest::atpg {
namespace {

using netlist::NodeId;
using netlist::NodeKind;
using sim::V3;

/// A decision variable: a frame PI, or (frame-0) state bit when
/// dff_index >= 0.
struct Decision {
  FramePi pi;
  int dff_index = -1;
  V3 value = V3::kX;
  bool flipped = false;
};

class Podem {
 public:
  Podem(UnrolledModel& model, const PodemOptions& options)
      : model_(model), options_(options) {}

  PodemResult Run() {
    PodemResult result;
    const long start_evaluations = model_.evaluations();
    while (true) {
      result.evaluations = model_.evaluations() - start_evaluations;
      if (result.evaluations > options_.max_evaluations ||
          (options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed))) {
        result.status = PodemStatus::kAborted;
        return result;
      }
      if (model_.FaultObserved()) {
        result.status = PodemStatus::kFound;
        return result;
      }
      const auto objective = ChooseObjective();
      std::optional<Decision> decision;
      if (objective) decision = Backtrace(*objective);
      if (decision) {
        Assign(*decision);
        stack_.push_back(*decision);
        continue;
      }
      // Dead end: flip the most recent unflipped decision.
      if (!Backtrack()) {
        result.backtracks = backtracks_;
        result.evaluations = model_.evaluations() - start_evaluations;
        result.status = PodemStatus::kExhausted;
        return result;
      }
      if (++backtracks_ > options_.max_backtracks) {
        result.backtracks = backtracks_;
        result.evaluations = model_.evaluations() - start_evaluations;
        result.status = PodemStatus::kAborted;
        return result;
      }
    }
  }

 private:
  struct Objective {
    FrameNode node;
    V3 value = V3::kX;
  };

  static V3 Negate(V3 v) { return sim::Not3(v); }

  /// Non-controlling side-input value for propagating through `kind`.
  static std::optional<V3> NonControlling(NodeKind kind) {
    switch (kind) {
      case NodeKind::kAnd:
      case NodeKind::kNand:
        return V3::k1;
      case NodeKind::kOr:
      case NodeKind::kNor:
        return V3::k0;
      case NodeKind::kXor:
      case NodeKind::kXnor:
        return V3::k0;  // either binary value propagates
      default:
        return std::nullopt;
    }
  }

  std::optional<Objective> ChooseObjective() {
    const sim::CompiledNetlist& net = model_.net();
    if (!model_.FaultExcited()) {
      const auto frames = model_.ActivationFrames();
      const fault::Fault& fault = FaultOf();
      const NodeId site =
          fault.site.pin < 0
              ? fault.site.node
              : static_cast<NodeId>(
                    net.fanins(static_cast<std::uint32_t>(fault.site.node))
                        [static_cast<size_t>(fault.site.pin)]);
      for (int t : frames) {
        if (!model_.Controllable({t, site})) continue;
        return Objective{{t, site},
                         fault.stuck_at_1 ? V3::k0 : V3::k1};
      }
      return std::nullopt;  // cannot excite under current assignments
    }
    // Advance the D-frontier: prefer later frames (closer to an
    // observation opportunity in deep circuits the effect must travel
    // forward in time).
    const auto frontier = model_.DFrontier();
    for (auto it = frontier.rbegin(); it != frontier.rend(); ++it) {
      const auto gate = static_cast<std::uint32_t>(it->node);
      const auto value = NonControlling(net.kind(gate));
      if (!value) continue;
      for (std::uint32_t driver : net.fanins(gate)) {
        const FrameNode input{it->frame, static_cast<NodeId>(driver)};
        if (model_.value(input).good == V3::kX &&
            model_.Controllable(input)) {
          return Objective{input, *value};
        }
      }
    }
    return std::nullopt;
  }

  std::optional<Decision> Backtrace(const Objective& objective) {
    const sim::CompiledNetlist& net = model_.net();
    FrameNode where = objective.node;
    V3 value = objective.value;
    // Walk X-valued, controllable nodes back to a decision variable.
    for (int guard = 0; guard < 1'000'000; ++guard) {
      const auto node = static_cast<std::uint32_t>(where.node);
      const auto fanins = net.fanins(node);
      switch (net.kind(node)) {
        case NodeKind::kInput: {
          Decision decision;
          decision.pi = {where.frame, net.pi_index(node)};
          decision.value = value;
          return decision;
        }
        case NodeKind::kDff: {
          if (where.frame == 0) {
            if (!model_.free_state()) return std::nullopt;
            Decision decision;
            decision.dff_index = net.dff_index(node);
            decision.value = value;
            return decision;
          }
          where = {where.frame - 1, static_cast<NodeId>(fanins[0])};
          break;
        }
        case NodeKind::kNot:
          value = Negate(value);
          [[fallthrough]];
        case NodeKind::kBuf:
        case NodeKind::kOutput:
          where = {where.frame, static_cast<NodeId>(fanins[0])};
          break;
        case NodeKind::kNand:
        case NodeKind::kNor:
          value = Negate(value);
          [[fallthrough]];
        case NodeKind::kAnd:
        case NodeKind::kOr:
        case NodeKind::kXor:
        case NodeKind::kXnor: {
          // Choose an unassigned controllable input, preferring paths
          // that reach a real PI (keeps free-state searches from
          // piling requirements onto the state).
          NodeId chosen = netlist::kNoNode;
          for (int pass = 0; pass < 2 && chosen == netlist::kNoNode; ++pass) {
            for (std::uint32_t driver : fanins) {
              const FrameNode input{where.frame, static_cast<NodeId>(driver)};
              if (model_.value(input).good != V3::kX ||
                  !model_.Controllable(input)) {
                continue;
              }
              if (pass == 0 && !model_.PiReachable(input)) continue;
              chosen = input.node;
              break;
            }
          }
          if (chosen == netlist::kNoNode) return std::nullopt;
          where = {where.frame, chosen};
          break;
        }
        default:
          return std::nullopt;  // constants are uncontrollable
      }
    }
    return std::nullopt;
  }

  void Assign(const Decision& decision) {
    if (decision.dff_index >= 0) {
      model_.AssignState(decision.dff_index, decision.value);
    } else {
      model_.AssignPi(decision.pi, decision.value);
    }
  }

  void Unassign(const Decision& decision) {
    if (decision.dff_index >= 0) {
      model_.AssignState(decision.dff_index, V3::kX);
    } else {
      model_.AssignPi(decision.pi, V3::kX);
    }
  }

  bool Backtrack() {
    while (!stack_.empty()) {
      Decision& top = stack_.back();
      if (!top.flipped) {
        top.flipped = true;
        top.value = Negate(top.value);
        Assign(top);
        return true;
      }
      Unassign(top);
      stack_.pop_back();
    }
    return false;
  }

  const fault::Fault& FaultOf() const { return model_.fault(); }

  UnrolledModel& model_;
  PodemOptions options_;
  std::vector<Decision> stack_;
  long backtracks_ = 0;
};

}  // namespace

PodemResult RunPodem(UnrolledModel& model, const PodemOptions& options) {
  RETEST_SCOPED_TIMER(podem_timer, "atpg.podem_ms", "atpg",
                      "wall time of one RunPodem call");
  Podem podem(model, options);
  const PodemResult result = podem.Run();
  RETEST_COUNTER_ADD("atpg.podem.searches", "searches", "atpg",
                     "RunPodem invocations", 1);
  RETEST_COUNTER_ADD("atpg.podem.backtracks", "backtracks", "atpg",
                     "PODEM decision-flip backtracks", result.backtracks);
  RETEST_COUNTER_ADD("atpg.podem.evaluations", "node-evals", "atpg",
                     "unrolled-model node evaluations inside PODEM",
                     result.evaluations);
  switch (result.status) {
    case PodemStatus::kFound:
      RETEST_COUNTER_ADD("atpg.podem.found", "searches", "atpg",
                         "searches that found a test", 1);
      break;
    case PodemStatus::kExhausted:
      RETEST_COUNTER_ADD("atpg.podem.exhausted", "searches", "atpg",
                         "complete searches (no test for the model)", 1);
      break;
    case PodemStatus::kAborted:
      RETEST_COUNTER_ADD("atpg.podem.aborted", "searches", "atpg",
                         "searches stopped by a limit or preemption", 1);
      break;
  }
  return result;
}

}  // namespace retest::atpg
