#include "atpg/justify.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "atpg/val5.h"
#include "core/metrics.h"
#include "sim/logic3.h"

namespace retest::atpg {
namespace {

using netlist::NodeKind;
using sim::V3;

/// True when a cooperative-preemption flag is set and raised.
bool Raised(const std::atomic<bool>* flag) {
  return flag != nullptr && flag->load(std::memory_order_relaxed);
}

/// Evaluation cap of every search, in frame units (see JustifyState).
constexpr long kMaxEvaluations = 20'000'000;

/// Shared search budget.
struct Budget {
  long backtracks = 0;
  long evaluations = 0;
  const JustifyOptions* options;
  bool Exhausted() const {
    return backtracks > options->max_backtracks ||
           evaluations > kMaxEvaluations ||
           Raised(options->stop) || Raised(options->cancel);
  }
};

/// What every frame solver of one JustifyState call shares: the
/// compiled circuit, the fault, the composite all-X frame image and
/// the event queue.  The recursion runs one solver at a time and each
/// drains the queue before it yields, so one queue serves them all.
class FrameContext {
 public:
  FrameContext(const sim::CompiledNetlist& net,
               const std::optional<fault::Fault>& fault)
      : net_(net),
        frame_cost_(net.num_nodes() - static_cast<long>(net.inputs().size()) -
                    static_cast<long>(net.dffs().size())),
        all_x_(static_cast<size_t>(net.num_nodes()), V5::X()),
        buckets_(static_cast<size_t>(net.depth()) + 1),
        queued_(static_cast<size_t>(net.num_nodes()), 0) {
    if (fault) {
      fault_node_ = static_cast<std::uint32_t>(fault->site.node);
      fault_pin_ = fault->site.pin;
      forced_ = fault->stuck_at_1 ? V3::k1 : V3::k0;
    }
    for (std::uint32_t id = 0;
         id < static_cast<std::uint32_t>(net.num_nodes()); ++id) {
      const NodeKind kind = net.kind(id);
      if (kind == NodeKind::kInput || kind == NodeKind::kDff) {
        all_x_[id] = Source(id, V3::kX);
      } else if (kind == NodeKind::kConst0 || kind == NodeKind::kConst1) {
        all_x_[id] = Compute(all_x_, id);
      }
    }
    for (std::uint32_t id : net.schedule()) all_x_[id] = Compute(all_x_, id);
  }

  const sim::CompiledNetlist& net() const { return net_; }
  /// Evaluations charged per solver step: one combinational frame.
  long frame_cost() const { return frame_cost_; }
  /// The frame with every PI and pseudo-PI at X.
  const std::vector<V5>& all_x() const { return all_x_; }

  /// The value a PI or DFF output carries when assigned `value`.
  V5 Source(std::uint32_t id, V3 value) const {
    V5 out = Both(value);
    if (id == fault_node_ && fault_pin_ < 0) out.faulty = forced_;
    return out;
  }

  /// The value latched by DFF `b` (with a data-pin fault applied).
  V5 Latched(const std::vector<V5>& values, size_t b) const {
    V5 out = values[net_.dff_data(b)];
    if (net_.dffs()[b] == fault_node_ && fault_pin_ == 0) out.faulty = forced_;
    return out;
  }

  /// Schedules the same-frame consumers of `id` (DFFs latch, they are
  /// not re-evaluated within the frame).
  void TouchFanouts(std::uint32_t id) {
    for (std::uint32_t sink : net_.fanouts(id)) {
      if (net_.kind(sink) == NodeKind::kDff || queued_[sink]) continue;
      queued_[sink] = 1;
      const auto level = static_cast<size_t>(net_.level(sink));
      buckets_[level].push_back(sink);
      if (pending_ == 0 || level < lowest_) lowest_ = level;
      ++pending_;
    }
  }

  /// Re-evaluates every scheduled node of `values` in level order;
  /// a node whose value changes schedules its own consumers.
  void Drain(std::vector<V5>& values) {
    for (size_t level = lowest_; pending_ > 0; ++level) {
      // Consumers sit at higher levels, so this bucket does not grow
      // while it is drained.
      std::vector<std::uint32_t>& bucket = buckets_[level];
      for (std::uint32_t id : bucket) {
        queued_[id] = 0;
        --pending_;
        const V5 value = Compute(values, id);
        if (value == values[id]) continue;
        values[id] = value;
        TouchFanouts(id);
      }
      bucket.clear();
    }
  }

  /// Drops whatever a finished solver left scheduled.
  void Discard() {
    for (auto& bucket : buckets_) {
      for (std::uint32_t id : bucket) queued_[id] = 0;
      bucket.clear();
    }
    pending_ = 0;
  }

 private:
  V5 Compute(const std::vector<V5>& values, std::uint32_t id) const {
    V5 out = EvalNode5(net_.kind(id), net_.fanins(id), values.data(),
                       id == fault_node_ ? fault_pin_ : -1, forced_);
    if (id == fault_node_ && fault_pin_ < 0) out.faulty = forced_;
    return out;
  }

  const sim::CompiledNetlist& net_;
  std::uint32_t fault_node_ = std::numeric_limits<std::uint32_t>::max();
  int fault_pin_ = -1;
  V3 forced_ = V3::kX;
  long frame_cost_;
  std::vector<V5> all_x_;
  std::vector<std::vector<std::uint32_t>> buckets_;  // by level
  std::vector<char> queued_;
  size_t lowest_ = 0;
  size_t pending_ = 0;
};

/// Enumerates (input vector, predecessor state cube) pairs whose
/// next-state function covers the target cube in BOTH the good and the
/// faulty machine, via PODEM over one composite combinational frame
/// with PIs and pseudo-PIs assignable.
class FrameSolver {
 public:
  FrameSolver(FrameContext& context, const std::vector<V3>& target,
              Budget& budget)
      : context_(context),
        net_(context.net()),
        target_(target),
        budget_(budget),
        values_(context.all_x()),
        pi_(net_.inputs().size(), V3::kX),
        ppi_(net_.dffs().size(), V3::kX) {}
  ~FrameSolver() { context_.Discard(); }
  FrameSolver(const FrameSolver&) = delete;
  FrameSolver& operator=(const FrameSolver&) = delete;

  /// Finds the next satisfying assignment; returns false when the
  /// space (or budget) is exhausted.  After a `true` return, read the
  /// solution via inputs()/predecessor() and call Next() again for an
  /// alternative.
  bool Next() {
    if (done_) return false;
    if (yielded_) {
      // Resume: treat the previous solution as a dead end.
      if (!Backtrack()) {
        done_ = true;
        return false;
      }
    }
    while (true) {
      if (budget_.Exhausted()) {
        done_ = true;
        return false;
      }
      Settle();
      const int verdict = CheckTargets();
      if (verdict == kSatisfied) {
        yielded_ = true;
        return true;
      }
      std::optional<Decision> decision;
      if (verdict >= 0) {
        decision = Backtrace(verdict);
      }
      if (decision) {
        Apply(*decision);
        stack_.push_back(*decision);
        continue;
      }
      ++budget_.backtracks;
      if (!Backtrack()) {
        done_ = true;
        return false;
      }
    }
  }

  const std::vector<V3>& inputs() const { return pi_; }
  const std::vector<V3>& predecessor() const { return ppi_; }

 private:
  static constexpr int kSatisfied = -1;
  static constexpr int kConflict = -2;

  struct Decision {
    int pi = -1;   ///< Index into pi_, or -1.
    int ppi = -1;  ///< Index into ppi_, or -1.
    V3 value = V3::kX;
    bool flipped = false;
  };

  /// Brings the frame up to date with the assignments and charges one
  /// full frame to the budget (see JustifyState).
  void Settle() {
    context_.Drain(values_);
    budget_.evaluations += context_.frame_cost();
  }

  /// Returns kSatisfied, kConflict, or the index of an unsatisfied
  /// target bit (one whose latched value still has an unknown side).
  int CheckTargets() const {
    int unsatisfied = kSatisfied;
    for (size_t b = 0; b < target_.size(); ++b) {
      if (target_[b] == V3::kX) continue;
      const V5 value = context_.Latched(values_, b);
      if ((value.good != V3::kX && value.good != target_[b]) ||
          (value.faulty != V3::kX && value.faulty != target_[b])) {
        return kConflict;
      }
      if (value.good == V3::kX || value.faulty == V3::kX) {
        if (unsatisfied == kSatisfied) unsatisfied = static_cast<int>(b);
      }
    }
    return unsatisfied;
  }

  std::optional<Decision> Backtrace(int target_bit) const {
    std::uint32_t where = net_.dff_data(static_cast<size_t>(target_bit));
    V3 value = target_[static_cast<size_t>(target_bit)];
    for (int guard = 0; guard < 1'000'000; ++guard) {
      switch (net_.kind(where)) {
        case NodeKind::kInput: {
          const int pi = net_.pi_index(where);
          if (pi_[static_cast<size_t>(pi)] != V3::kX) {
            return std::nullopt;  // already assigned; nothing to decide
          }
          Decision decision;
          decision.pi = pi;
          decision.value = value;
          return decision;
        }
        case NodeKind::kDff: {
          const int ppi = net_.dff_index(where);
          if (ppi_[static_cast<size_t>(ppi)] != V3::kX) {
            return std::nullopt;
          }
          Decision decision;
          decision.ppi = ppi;
          decision.value = value;
          return decision;
        }
        case NodeKind::kNot:
          value = sim::Not3(value);
          [[fallthrough]];
        case NodeKind::kBuf:
        case NodeKind::kOutput:
          where = net_.fanins(where)[0];
          break;
        case NodeKind::kNand:
        case NodeKind::kNor:
          value = sim::Not3(value);
          [[fallthrough]];
        case NodeKind::kAnd:
        case NodeKind::kOr:
        case NodeKind::kXor:
        case NodeKind::kXnor: {
          // Prefer inputs whose cone reaches a real PI: assignments
          // there relax the predecessor cube faster.
          bool found = false;
          std::uint32_t chosen = 0;
          for (int pass = 0; pass < 2 && !found; ++pass) {
            for (std::uint32_t driver : net_.fanins(where)) {
              const V5& v = values_[driver];
              if (v.good != V3::kX && v.faulty != V3::kX) continue;
              if (pass == 0 && !net_.pi_reachable(driver)) continue;
              chosen = driver;
              found = true;
              break;
            }
          }
          if (!found) return std::nullopt;
          where = chosen;
          break;
        }
        default:
          return std::nullopt;  // constants
      }
    }
    return std::nullopt;
  }

  /// Sets a PI or pseudo-PI and schedules its consumers.
  void Assign(int pi, int ppi, V3 value) {
    const auto pos = static_cast<size_t>(pi >= 0 ? pi : ppi);
    (pi >= 0 ? pi_ : ppi_)[pos] = value;
    const std::uint32_t id = pi >= 0 ? net_.inputs()[pos] : net_.dffs()[pos];
    const V5 source = context_.Source(id, value);
    if (source == values_[id]) return;
    values_[id] = source;
    context_.TouchFanouts(id);
  }

  void Apply(const Decision& decision) {
    Assign(decision.pi, decision.ppi, decision.value);
  }

  bool Backtrack() {
    while (!stack_.empty()) {
      Decision& top = stack_.back();
      if (!top.flipped) {
        top.flipped = true;
        top.value = sim::Not3(top.value);
        Apply(top);
        return true;
      }
      Assign(top.pi, top.ppi, V3::kX);  // unassign
      stack_.pop_back();
    }
    return false;
  }

  FrameContext& context_;
  const sim::CompiledNetlist& net_;
  const std::vector<V3>& target_;
  Budget& budget_;
  std::vector<V5> values_;
  std::vector<V3> pi_;
  std::vector<V3> ppi_;
  std::vector<Decision> stack_;
  bool yielded_ = false;
  bool done_ = false;
};

class Justifier {
 public:
  Justifier(const sim::CompiledNetlist& net, const JustifyOptions& options,
            const std::optional<fault::Fault>& fault)
      : options_(options), context_(net, fault) {
    budget_.options = &options_;
  }

  JustifyResult Run(const std::vector<V3>& target) {
    JustifyResult result;
    sim::InputSequence sequence;
    const bool ok = Recurse(target, 0, sequence);
    result.backtracks = budget_.backtracks;
    result.evaluations = budget_.evaluations;
    if (ok) {
      result.status = JustifyStatus::kJustified;
      result.sequence = std::move(sequence);
    } else {
      result.status = budget_.Exhausted() ? JustifyStatus::kAborted
                                          : JustifyStatus::kFailed;
    }
    return result;
  }

 private:
  bool Recurse(const std::vector<V3>& target, int depth,
               sim::InputSequence& sequence) {
    bool trivial = true;
    for (V3 v : target) trivial &= (v == V3::kX);
    if (trivial) return true;  // any state will do
    if (depth >= options_.max_depth || budget_.Exhausted()) return false;

    FrameSolver solver(context_, target, budget_);
    while (solver.Next()) {
      if (Recurse(solver.predecessor(), depth + 1, sequence)) {
        // Prefix found for the predecessor; append this frame's
        // inputs (X's are free -- fill with 0).
        std::vector<V3> vector = solver.inputs();
        for (V3& v : vector) {
          if (v == V3::kX) v = V3::k0;
        }
        sequence.push_back(std::move(vector));
        return true;
      }
    }
    return false;
  }

  JustifyOptions options_;
  FrameContext context_;
  Budget budget_;
};

}  // namespace

JustifyResult JustifyState(const sim::CompiledNetlist& net,
                           const std::vector<V3>& target,
                           const JustifyOptions& options,
                           const std::optional<fault::Fault>& fault) {
  RETEST_SCOPED_TIMER(justify_timer, "atpg.justify_ms", "atpg",
                      "wall time of one JustifyState call");
  Justifier justifier(net, options, fault);
  return justifier.Run(target);
}

}  // namespace retest::atpg
