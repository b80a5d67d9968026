#include "analyze/scoap.h"

#include <algorithm>
#include <cstdio>

#include "core/metrics.h"
#include "netlist/check.h"
#include "sim/levelizer.h"

namespace retest::analyze {
namespace {

using netlist::Circuit;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  const std::int64_t sum = a + b;
  return sum >= kScoapInf ? kScoapInf : sum;
}

/// A (combinational, sequential) measure pair moving through one
/// transfer rule together: gates add +1 to the combinational member
/// and nothing to the sequential one; DFFs do the opposite.
struct Pair {
  std::int64_t c = kScoapInf;  ///< Combinational (assignments).
  std::int64_t s = kScoapInf;  ///< Sequential (time frames).
};

Pair PairAdd(Pair a, Pair b) { return {SatAdd(a.c, b.c), SatAdd(a.s, b.s)}; }

Pair PairMin(Pair a, Pair b) {
  // Order by the combinational measure, sequential as tiebreak; the
  // two members travel together so "easiest way to set the value"
  // stays a single choice.
  if (a.c != b.c) return a.c < b.c ? a : b;
  return a.s < b.s ? a : b;
}

Pair GateStep(Pair p) { return {SatAdd(p.c, 1), p.s}; }

struct Ctrl {
  Pair zero, one;  ///< (CC0, SC0) and (CC1, SC1).
};

/// XOR-family controllability: dynamic programming over the fanins;
/// `odd` tracks the cheapest way to odd/even parity.
Ctrl XorCombine(const std::vector<Ctrl>& in) {
  Pair even = in[0].zero, odd = in[0].one;
  for (size_t i = 1; i < in.size(); ++i) {
    const Pair new_even =
        PairMin(PairAdd(even, in[i].zero), PairAdd(odd, in[i].one));
    const Pair new_odd =
        PairMin(PairAdd(even, in[i].one), PairAdd(odd, in[i].zero));
    even = new_even;
    odd = new_odd;
  }
  return {even, odd};
}

/// One forward controllability evaluation of `id` from its fanins'
/// current values.
Ctrl EvalControllability(const Circuit& circuit, NodeId id,
                         const std::vector<Ctrl>& ctrl) {
  const Node& node = circuit.node(id);
  std::vector<Ctrl> in;
  in.reserve(node.fanin.size());
  for (NodeId driver : node.fanin) {
    in.push_back(ctrl[static_cast<size_t>(driver)]);
  }
  switch (node.kind) {
    case NodeKind::kInput:
      return {{1, 0}, {1, 0}};
    case NodeKind::kConst0:
      return {{0, 0}, {kScoapInf, kScoapInf}};
    case NodeKind::kConst1:
      return {{kScoapInf, kScoapInf}, {0, 0}};
    case NodeKind::kOutput:
      return in[0];  // a pin observes its driver; no extra cost
    case NodeKind::kDff:
      // Free-running clock, no set/reset: the value is loaded from D
      // one frame earlier.
      return {{in[0].zero.c, SatAdd(in[0].zero.s, 1)},
              {in[0].one.c, SatAdd(in[0].one.s, 1)}};
    case NodeKind::kBuf:
      return {GateStep(in[0].zero), GateStep(in[0].one)};
    case NodeKind::kNot:
      return {GateStep(in[0].one), GateStep(in[0].zero)};
    case NodeKind::kAnd:
    case NodeKind::kNand: {
      Pair all_one = in[0].one, any_zero = in[0].zero;
      for (size_t i = 1; i < in.size(); ++i) {
        all_one = PairAdd(all_one, in[i].one);
        any_zero = PairMin(any_zero, in[i].zero);
      }
      Ctrl out{GateStep(any_zero), GateStep(all_one)};
      if (node.kind == NodeKind::kNand) std::swap(out.zero, out.one);
      return out;
    }
    case NodeKind::kOr:
    case NodeKind::kNor: {
      Pair all_zero = in[0].zero, any_one = in[0].one;
      for (size_t i = 1; i < in.size(); ++i) {
        all_zero = PairAdd(all_zero, in[i].zero);
        any_one = PairMin(any_one, in[i].one);
      }
      Ctrl out{GateStep(all_zero), GateStep(any_one)};
      if (node.kind == NodeKind::kNor) std::swap(out.zero, out.one);
      return out;
    }
    case NodeKind::kXor:
    case NodeKind::kXnor: {
      Ctrl parity = XorCombine(in);
      Ctrl out{GateStep(parity.zero), GateStep(parity.one)};
      if (node.kind == NodeKind::kXnor) std::swap(out.zero, out.one);
      return out;
    }
  }
  return {};
}

/// Side-input cost of propagating through `node` past pin `pin`: the
/// non-controlling assignments the other pins need.
Pair SideInputs(const Node& node, size_t pin, const std::vector<Ctrl>& ctrl) {
  Pair cost{0, 0};
  for (size_t k = 0; k < node.fanin.size(); ++k) {
    if (k == pin) continue;
    const Ctrl& c = ctrl[static_cast<size_t>(node.fanin[k])];
    switch (node.kind) {
      case NodeKind::kAnd:
      case NodeKind::kNand:
        cost = PairAdd(cost, c.one);
        break;
      case NodeKind::kOr:
      case NodeKind::kNor:
        cost = PairAdd(cost, c.zero);
        break;
      case NodeKind::kXor:
      case NodeKind::kXnor:
        cost = PairAdd(cost, PairMin(c.zero, c.one));
        break;
      default:
        break;  // single-input kinds have no side inputs
    }
  }
  return cost;
}

}  // namespace

ScoapResult ComputeScoap(const Circuit& circuit) {
  RETEST_SCOPED_TIMER(timer, "analyze.scoap_ms", "analyze",
                      "wall time of one full SCOAP computation");
  netlist::CheckOrThrow(circuit);
  const sim::Levelization level = sim::Levelize(circuit);
  const size_t n = static_cast<size_t>(circuit.size());

  // Forward fixed point: controllability.  Values start at infinity
  // and only ever decrease (every transfer rule is monotone), so
  // sweeping the levelized order until nothing changes converges; each
  // extra sweep carries values across one more register generation.
  std::vector<Ctrl> ctrl(n);
  int iterations = 0;
  for (bool changed = true; changed; ++iterations) {
    changed = false;
    for (NodeId id : level.order) {
      const Ctrl next = EvalControllability(circuit, id, ctrl);
      Ctrl& current = ctrl[static_cast<size_t>(id)];
      if (next.zero.c != current.zero.c || next.zero.s != current.zero.s ||
          next.one.c != current.one.c || next.one.s != current.one.s) {
        current = next;
        changed = true;
      }
    }
  }

  // Backward fixed point: observability over the reversed order, with
  // the same monotone-decrease argument (registers feed observability
  // forward, so loops again need one sweep per generation).
  std::vector<Pair> obs(n);
  for (NodeId id : circuit.outputs()) {
    obs[static_cast<size_t>(id)] = {0, 0};
  }
  for (bool changed = true; changed; ++iterations) {
    changed = false;
    for (auto it = level.order.rbegin(); it != level.order.rend(); ++it) {
      const NodeId id = *it;
      if (circuit.node(id).kind == NodeKind::kOutput) continue;
      Pair best = obs[static_cast<size_t>(id)];
      for (NodeId sink : circuit.node(id).fanout) {
        const Node& consumer = circuit.node(sink);
        for (size_t pin = 0; pin < consumer.fanin.size(); ++pin) {
          if (consumer.fanin[pin] != id) continue;
          const Pair at_sink = obs[static_cast<size_t>(sink)];
          Pair through;
          switch (consumer.kind) {
            case NodeKind::kOutput:
              through = {0, 0};
              break;
            case NodeKind::kDff:
              through = {at_sink.c, SatAdd(at_sink.s, 1)};
              break;
            case NodeKind::kBuf:
            case NodeKind::kNot:
              through = {SatAdd(at_sink.c, 1), at_sink.s};
              break;
            default: {
              const Pair side = SideInputs(consumer, pin, ctrl);
              through = {SatAdd(SatAdd(at_sink.c, side.c), 1),
                         SatAdd(at_sink.s, side.s)};
              break;
            }
          }
          best = PairMin(best, through);
        }
      }
      Pair& current = obs[static_cast<size_t>(id)];
      if (best.c != current.c || best.s != current.s) {
        current = best;
        changed = true;
      }
    }
  }

  ScoapResult result;
  result.iterations = iterations;
  result.nets.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.nets[i] = {ctrl[i].zero.c, ctrl[i].one.c, obs[i].c,
                      ctrl[i].zero.s, ctrl[i].one.s, obs[i].s};
  }
  RETEST_DIST_RECORD("analyze.scoap.sweeps", "sweeps", "analyze",
                     "fixed-point sweeps until SCOAP convergence",
                     static_cast<double>(iterations));
  return result;
}

ScoapSummary Summarize(const ScoapResult& result) {
  ScoapSummary summary;
  summary.num_nets = static_cast<int>(result.nets.size());
  double cc_sum = 0, co_sum = 0, sc_sum = 0, so_sum = 0;
  int cc_count = 0, co_count = 0;
  for (const ScoapValues& v : result.nets) {
    const std::int64_t cc = std::max(v.cc0, v.cc1);
    const std::int64_t sc = std::max(v.sc0, v.sc1);
    if (cc >= kScoapInf) {
      ++summary.uncontrollable_nets;
    } else {
      ++cc_count;
      cc_sum += static_cast<double>(cc);
      sc_sum += static_cast<double>(sc);
      summary.max_cc = std::max(summary.max_cc, static_cast<double>(cc));
      summary.max_sc = std::max(summary.max_sc, static_cast<double>(sc));
      summary.sequential_cost += static_cast<double>(v.sc0 + v.sc1);
    }
    if (v.co >= kScoapInf) {
      ++summary.unobservable_nets;
    } else {
      ++co_count;
      co_sum += static_cast<double>(v.co);
      so_sum += static_cast<double>(v.so);
      summary.max_co = std::max(summary.max_co, static_cast<double>(v.co));
      summary.max_so = std::max(summary.max_so, static_cast<double>(v.so));
      summary.sequential_cost += static_cast<double>(v.so);
    }
  }
  if (cc_count > 0) {
    summary.mean_cc = cc_sum / cc_count;
    summary.mean_sc = sc_sum / cc_count;
  }
  if (co_count > 0) {
    summary.mean_co = co_sum / co_count;
    summary.mean_so = so_sum / co_count;
  }
  return summary;
}

std::string ScoapSummary::ToJson() const {
  char buf[512];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"nets\": %d, \"uncontrollable\": %d, "
                "\"unobservable\": %d,\n",
                num_nets, uncontrollable_nets, unobservable_nets);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"cc\": {\"mean\": %.2f, \"max\": %.0f}, "
                "\"co\": {\"mean\": %.2f, \"max\": %.0f},\n",
                mean_cc, max_cc, mean_co, max_co);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"sc\": {\"mean\": %.2f, \"max\": %.0f}, "
                "\"so\": {\"mean\": %.2f, \"max\": %.0f},\n",
                mean_sc, max_sc, mean_so, max_so);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"sequential_cost\": %.0f\n}",
                sequential_cost);
  out += buf;
  return out;
}

}  // namespace retest::analyze
